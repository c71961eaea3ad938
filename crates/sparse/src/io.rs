//! Matrix Market I/O and a simple whitespace-delimited edge-list reader.
//!
//! HipMCL ingests protein-similarity networks as labelled edge lists /
//! Matrix Market files; this module provides the equivalents so real
//! datasets can be dropped into the reproduction.

use crate::csc::Csc;
use crate::triples::Triples;
use crate::Idx;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or numeric parse failure with a line-level description.
    Parse(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a Matrix Market `coordinate real general|symmetric` file.
/// Symmetric inputs are expanded to a full pattern.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Triples<f64>, IoError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| IoError::Parse("empty file".into()))??;
    let h = header.to_ascii_lowercase();
    if !h.starts_with("%%matrixmarket matrix coordinate") {
        return Err(IoError::Parse(format!("unsupported header: {header}")));
    }
    let symmetric = h.contains("symmetric");
    let pattern = h.contains("pattern");

    // Skip comments, read the size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| IoError::Parse("missing size line".into()))??;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        break line;
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| IoError::Parse(format!("size line: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(IoError::Parse(format!("bad size line: {size_line}")));
    }
    let (m, n, nnz) = (dims[0], dims[1], dims[2]);

    let mut t = Triples::with_capacity(m, n, if symmetric { 2 * nnz } else { nnz });
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut toks = trimmed.split_whitespace();
        let i: usize = parse_tok(toks.next(), trimmed)?;
        let j: usize = parse_tok(toks.next(), trimmed)?;
        let v = match toks.next() {
            _ if pattern => 1.0,
            Some(tok) => weight(tok, trimmed)?,
            None => return Err(IoError::Parse(format!("short line: {trimmed}"))),
        };
        if i == 0 || j == 0 || i > m || j > n {
            return Err(IoError::Parse(format!("index out of range: {trimmed}")));
        }
        t.push((i - 1) as Idx, (j - 1) as Idx, v);
        if symmetric && i != j {
            t.push((j - 1) as Idx, (i - 1) as Idx, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(IoError::Parse(format!(
            "expected {nnz} entries, found {seen}"
        )));
    }
    Ok(t)
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, line: &str) -> Result<T, IoError>
where
    T::Err: std::fmt::Display,
{
    tok.ok_or_else(|| IoError::Parse(format!("short line: {line}")))?
        .parse::<T>()
        .map_err(|e| IoError::Parse(format!("bad token in '{line}': {e}")))
}

/// The weight `tok` of `line`, which must be finite: `"NaN".parse::<f64>()`
/// succeeds, but no prune can rank a NaN or an infinite weight.
pub(crate) fn weight(tok: &str, line: &str) -> Result<f64, IoError> {
    match tok.parse::<f64>() {
        Ok(w) if w.is_finite() => Ok(w),
        Ok(_) => Err(IoError::Parse(format!("non-finite weight in '{line}'"))),
        Err(e) => Err(IoError::Parse(format!("bad weight in '{line}': {e}"))),
    }
}

/// Writes a matrix as Matrix Market `coordinate real general`.
pub fn write_matrix_market<W: Write>(w: &mut W, m: &Csc<f64>) -> Result<(), IoError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {v}", r + 1, c + 1)?;
    }
    Ok(())
}

/// Reads a whitespace-delimited edge list `src dst [weight]` with 0-based
/// vertex ids; dimensions inferred from the maximum id. The format HipMCL
/// calls "labelled triples" after integer relabelling.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Triples<f64>, IoError> {
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    let mut max_id = 0usize;
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut toks = trimmed.split_whitespace();
        let s: usize = parse_tok(toks.next(), trimmed)?;
        let d: usize = parse_tok(toks.next(), trimmed)?;
        let w = toks.next().map_or(Ok(1.0), |tok| weight(tok, trimmed))?;
        max_id = max_id.max(s).max(d);
        rows.push(s as Idx);
        cols.push(d as Idx);
        vals.push(w);
    }
    let n = if rows.is_empty() { 0 } else { max_id + 1 };
    Ok(Triples::from_arrays(n, n, rows, cols, vals))
}

/// Convenience: reads a Matrix Market file from a path.
pub fn read_matrix_market_path<P: AsRef<Path>>(p: P) -> Result<Triples<f64>, IoError> {
    read_matrix_market(std::fs::File::open(p)?)
}

/// Writes the clustering as `cluster_id \t member members...` lines, one
/// cluster per line — the same shape as HipMCL's output file.
pub fn write_clusters<W: Write>(w: &mut W, clusters: &[Vec<u32>]) -> Result<(), IoError> {
    for (cid, members) in clusters.iter().enumerate() {
        write!(w, "{cid}")?;
        for v in members {
            write!(w, "\t{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_market_roundtrip() {
        let mut t = Triples::new(3, 3);
        t.push(0, 0, 1.5);
        t.push(2, 1, -2.0);
        let m = Csc::from_triples(&t);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = Csc::from_triples(&read_matrix_market(&buf[..]).unwrap());
        assert_eq!(m, back);
    }

    #[test]
    fn matrix_market_symmetric_expands() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n% comment\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let t = read_matrix_market(text.as_bytes()).unwrap();
        let m = Csc::from_triples(&t);
        assert_eq!(m.get(1, 0), Some(5.0));
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(2, 2), Some(1.0));
        assert_eq!(m.nnz(), 3, "diagonal not duplicated");
    }

    #[test]
    fn matrix_market_pattern_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let t = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(t.iter().next().unwrap(), (0, 1, 1.0));
    }

    #[test]
    fn matrix_market_rejects_bad_header() {
        let text = "%%MatrixMarket matrix array real general\n2 2 0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_out_of_range() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_reads_weights_and_defaults() {
        let text = "# proteins\n0 1 0.5\n1 2\n";
        let t = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(t.nrows(), 3);
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries[0], (0, 1, 0.5));
        assert_eq!(entries[1], (1, 2, 1.0));
    }

    #[test]
    fn matrix_market_rejects_non_finite_weights() {
        for w in ["NaN", "inf", "-inf"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 {w}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err().to_string();
            assert!(err.contains(&format!("'1 2 {w}'")), "{err}");
        }
    }

    #[test]
    fn edge_list_rejects_non_finite_weights() {
        for w in ["NaN", "inf", "-inf"] {
            let text = format!("0 1 0.5\n1 2 {w}\n");
            let err = read_edge_list(text.as_bytes()).unwrap_err().to_string();
            assert!(err.contains(&format!("'1 2 {w}'")), "{err}");
        }
    }

    #[test]
    fn edge_list_empty() {
        let t = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(t.nrows(), 0);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn clusters_output_format() {
        let mut buf = Vec::new();
        write_clusters(&mut buf, &[vec![0, 3], vec![1, 2]]).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0\t0\t3\n1\t1\t2\n");
    }
}
