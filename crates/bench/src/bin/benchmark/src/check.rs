//! Answer checks: witnesses, and χ agreement across runs of the
//! benchmark.

use sbgc_graph::{Coloring, Graph};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A witness for `chi` must color every vertex, be proper, and use
/// exactly `chi` colors.
pub fn witness(graph: &Graph, coloring: &Coloring, chi: usize) -> Result<(), String> {
    if coloring.num_vertices() != graph.num_vertices() {
        return Err(format!(
            "witness colors {} of {} vertices",
            coloring.num_vertices(),
            graph.num_vertices()
        ));
    }
    if !coloring.is_proper(graph) {
        return Err("witness is not a proper coloring".to_string());
    }
    if coloring.num_colors() != chi {
        return Err(format!("witness uses {} colors for χ = {chi}", coloring.num_colors()));
    }
    Ok(())
}

/// χ of every graph any run of the benchmark in this checkout decided,
/// keyed by graph fingerprint. A workload that reaches a different χ for
/// a graph another workload (or an earlier run) already decided has a
/// wrong answer — this is how `ladder-seq` and `portfolio-2w`, which run
/// in separate processes, are held to the same χ on the same graphs.
#[derive(Debug)]
pub struct Ledger {
    path: PathBuf,
    known: BTreeMap<String, usize>,
}

impl Ledger {
    /// Loads the ledger at `path`; a missing file is an empty ledger.
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut known = BTreeMap::new();
        match fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    let parsed = line
                        .split_once('\t')
                        .and_then(|(fp, chi)| Some((fp.to_string(), chi.parse().ok()?)));
                    match parsed {
                        Some((fp, chi)) => {
                            known.insert(fp, chi);
                        }
                        None => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("{}: malformed line {line:?}", path.display()),
                            ))
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Ledger { path: path.to_path_buf(), known })
    }

    /// Records `chi` for the graph with `fingerprint`, or reports the
    /// disagreement with the χ recorded before.
    pub fn check(&mut self, fingerprint: &str, chi: usize) -> Result<(), String> {
        match self.known.get(fingerprint) {
            Some(&prev) if prev != chi => {
                Err(format!("χ = {chi}, but an earlier run decided χ = {prev} for this graph"))
            }
            Some(_) => Ok(()),
            None => {
                self.known.insert(fingerprint.to_string(), chi);
                Ok(())
            }
        }
    }

    /// Writes the ledger back.
    pub fn save(&self) -> io::Result<()> {
        let text: String = self.known.iter().map(|(fp, chi)| format!("{fp}\t{chi}\n")).collect();
        fs::write(&self.path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_check_rejects_improper_and_miscounted_colorings() {
        let triangle = Graph::complete(3);
        assert!(witness(&triangle, &Coloring::new(vec![0, 1, 2]), 3).is_ok());
        assert!(witness(&triangle, &Coloring::new(vec![0, 0, 1]), 2).is_err());
        assert!(witness(&triangle, &Coloring::new(vec![0, 1, 2]), 4).is_err());
        assert!(witness(&triangle, &Coloring::new(vec![0, 1]), 2).is_err());
    }

    #[test]
    fn ledger_round_trips_and_flags_disagreement() {
        let dir = std::env::temp_dir().join(format!("sbgc-ledger-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("chi-ledger.tsv");
        let _ = fs::remove_file(&path);
        let mut ledger = Ledger::load(&path).expect("missing file is empty");
        assert!(ledger.check("n=3 m=3 hash=1", 3).is_ok());
        ledger.save().expect("writable");
        let mut again = Ledger::load(&path).expect("readable");
        assert!(again.check("n=3 m=3 hash=1", 3).is_ok());
        assert!(again.check("n=3 m=3 hash=1", 4).is_err());
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
