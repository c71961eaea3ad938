//! String-labelled graph ingestion.
//!
//! Real HipMCL inputs are protein-similarity edge lists keyed by protein
//! *names* (`proteinA proteinB score`); the solver works on dense integer
//! ids and maps back when writing clusters. This module provides that
//! dictionary layer: [`LabelMap`] interns labels to dense ids, and
//! [`read_labelled_edge_list`] parses the HipMCL-style input format.

use crate::io::{weight, IoError};
use crate::triples::Triples;
use crate::Idx;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

/// Bidirectional mapping between string labels and dense vertex ids.
#[derive(Clone, Debug, Default)]
pub struct LabelMap {
    to_id: HashMap<String, Idx>,
    to_label: Vec<String>,
}

impl LabelMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `label`, returning its dense id (existing or fresh).
    pub fn intern(&mut self, label: &str) -> Idx {
        if let Some(&id) = self.to_id.get(label) {
            return id;
        }
        let id = self.to_label.len() as Idx;
        self.to_id.insert(label.to_string(), id);
        self.to_label.push(label.to_string());
        id
    }

    /// Id of `label`, if interned.
    pub fn id_of(&self, label: &str) -> Option<Idx> {
        self.to_id.get(label).copied()
    }

    /// Label of `id`.
    pub fn label_of(&self, id: Idx) -> Option<&str> {
        self.to_label.get(id as usize).map(String::as_str)
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.to_label.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.to_label.is_empty()
    }
}

/// Reads a labelled edge list: `srcLabel dstLabel [weight]` per line,
/// `#`/`%` comments. Returns the graph (square, sized to the label count)
/// and the label dictionary. This is the shape of HipMCL's protein
/// similarity inputs.
pub fn read_labelled_edge_list<R: Read>(reader: R) -> Result<(Triples<f64>, LabelMap), IoError> {
    let mut map = LabelMap::new();
    let mut entries: Vec<(Idx, Idx, f64)> = Vec::new();
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut toks = t.split_whitespace();
        let a = toks
            .next()
            .ok_or_else(|| IoError::Parse(format!("short line: {t}")))?;
        let b = toks
            .next()
            .ok_or_else(|| IoError::Parse(format!("short line: {t}")))?;
        let w = toks.next().map_or(Ok(1.0), |tok| weight(tok, t))?;
        let (ia, ib) = (map.intern(a), map.intern(b));
        entries.push((ia, ib, w));
    }
    let n = map.len();
    let mut t = Triples::with_capacity(n, n, entries.len());
    for (r, c, v) in entries {
        t.push(r, c, v);
    }
    Ok((t, map))
}

/// Writes clusters with labels restored: one line per cluster, tab
/// separated member labels — the MCL output convention.
pub fn write_labelled_clusters<W: Write>(
    w: &mut W,
    clusters: &[Vec<u32>],
    map: &LabelMap,
) -> Result<(), IoError> {
    for members in clusters {
        let mut first = true;
        for &v in members {
            let label = map
                .label_of(v)
                .ok_or_else(|| IoError::Parse(format!("unknown vertex id {v}")))?;
            if first {
                write!(w, "{label}")?;
                first = false;
            } else {
                write!(w, "\t{label}")?;
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut m = LabelMap::new();
        let a = m.intern("P12345");
        let b = m.intern("Q67890");
        assert_eq!(m.intern("P12345"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.label_of(1), Some("Q67890"));
        assert_eq!(m.id_of("Q67890"), Some(1));
        assert_eq!(m.id_of("missing"), None);
    }

    #[test]
    fn labelled_edge_list_roundtrip() {
        let text = "# similarity scores\nprotA protB 0.9\nprotB protC 0.5\nprotA protC\n";
        let (t, map) = read_labelled_edge_list(text.as_bytes()).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(t.nrows(), 3);
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries[0], (0, 1, 0.9));
        assert_eq!(entries[1], (1, 2, 0.5));
        assert_eq!(entries[2], (0, 2, 1.0), "missing weight defaults to 1");
    }

    #[test]
    fn labelled_edge_list_rejects_garbage_weight() {
        for text in ["a b notanumber\n", "a b NaN\n", "a b inf\n"] {
            assert!(read_labelled_edge_list(text.as_bytes()).is_err(), "{text}");
        }
    }

    #[test]
    fn labelled_cluster_output() {
        let mut map = LabelMap::new();
        map.intern("x");
        map.intern("y");
        map.intern("z");
        let mut buf = Vec::new();
        write_labelled_clusters(&mut buf, &[vec![0, 2], vec![1]], &map).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "x\tz\ny\n");
    }

    #[test]
    fn empty_input_empty_graph() {
        let (t, map) = read_labelled_edge_list("".as_bytes()).unwrap();
        assert_eq!(t.nnz(), 0);
        assert!(map.is_empty());
    }
}
