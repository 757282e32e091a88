//! `update`, and the durable dynamic store it shares with `serve --dynamic`
//! and `stats --store`.

use std::io::Write;
use std::path::Path;

use fsdl_graph::{Graph, NodeId};
use fsdl_labels::{DynamicConfig, DynamicOracle, OpenMode, RebuildMode};

use super::{load_graph, open_mode_from, parse_eps, require, write_out};
use crate::args::{parse_edge_list, parse_vertex_list, ArgError, ParsedArgs};

/// The dynamic store at `--store DIR`: opened — WAL replay included — when
/// it exists, created from `--eps`/`--threshold` on first use, and rebuilt
/// off the serving path with `--background yes`.
pub(super) struct DynamicStore<'a> {
    pub(super) dir: &'a str,
    eps: Option<f64>,
    threshold: Option<usize>,
    mode: Option<OpenMode>,
    background: bool,
}

impl<'a> DynamicStore<'a> {
    pub(super) fn parse(args: &'a ParsedArgs, dir: &'a str) -> Result<Self, ArgError> {
        let eps = args.option("eps").map(|_| parse_eps(args)).transpose()?;
        Ok(DynamicStore {
            dir,
            eps,
            threshold: args.parse_opt("threshold")?,
            mode: open_mode_from(args)?,
            background: args.flag("background"),
        })
    }

    pub(super) fn open(&self, g: &Graph) -> Result<DynamicOracle, ArgError> {
        let dir = Path::new(self.dir);
        let oracle = if dir.join(fsdl_labels::store::MANIFEST_NAME).exists() {
            require(
                self.eps.is_none() && self.threshold.is_none(),
                "--eps/--threshold conflict with an existing store (both are recorded in it)",
            )?;
            DynamicOracle::open_with(dir, g, self.mode.unwrap_or_default())
                .map_err(|e| ArgError(format!("cannot open store {}: {e}", self.dir)))?
        } else {
            require(
                self.mode.is_none(),
                "--open-mode applies to an existing store (this one is being created in memory)",
            )?;
            let mut oracle = DynamicOracle::try_with_config(
                g,
                DynamicConfig {
                    epsilon: self.eps.unwrap_or(1.0),
                    threshold: self.threshold,
                    ..DynamicConfig::default()
                },
            )
            .map_err(|e| ArgError(e.to_string()))?;
            oracle
                .attach_store(dir)
                .map_err(|e| ArgError(format!("cannot create store {}: {e}", self.dir)))?;
            oracle
        };
        if self.background {
            oracle.set_rebuild_mode(RebuildMode::Background);
        }
        Ok(oracle)
    }
}

/// `fsdl update`: durable dynamic updates against a store directory. The
/// store is created on first use (from `--eps`/`--threshold`) and opened —
/// WAL replay included — afterwards, so killing this command at any point
/// (see `FSDL_CRASH_POINT`) never loses an acknowledged update. Every
/// update list is parsed before the store is touched, so a malformed one
/// applies nothing.
pub(super) fn update<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), ArgError> {
    let g = load_graph(args.positional(0, "graph-file")?)?;
    let store = DynamicStore::parse(args, args.required("store")?)?;
    let list = |key| args.option(key).unwrap_or("");
    let deletes = parse_vertex_list(list("delete"))?;
    let edge_deletes = parse_edge_list(list("delete-edge"))?;
    let restores = parse_vertex_list(list("restore"))?;
    let edge_restores = parse_edge_list(list("restore-edge"))?;
    args.finish()?;
    let mut oracle = store.open(&g)?;
    let mut applied = 0usize;
    let mut apply = |r: Result<(), fsdl_labels::DynamicError>| -> Result<(), ArgError> {
        r.map_err(|e| ArgError(format!("update failed: {e}")))?;
        applied += 1;
        Ok(())
    };
    let id = NodeId::new;
    for v in deletes {
        apply(oracle.delete_vertex(id(v)))?;
    }
    for (a, b) in edge_deletes {
        apply(oracle.delete_edge(id(a), id(b)))?;
    }
    for v in restores {
        apply(oracle.restore_vertex(id(v)))?;
    }
    for (a, b) in edge_restores {
        apply(oracle.restore_edge(id(a), id(b)))?;
    }
    // Drain any background rebuild before reporting: the process is about
    // to exit, and the install/persist must not be torn off mid-flight.
    oracle.wait_for_rebuild();
    let text = format!(
        "applied {applied} durable update(s) to {} ({} fault(s) active)\n{}",
        store.dir,
        oracle.current_faults().len(),
        render_dynamic_stats(&oracle)
    );
    write_out(out, &text)
}

/// The service-health block shared by `stats --store` and `update`.
pub(super) fn render_dynamic_stats(oracle: &DynamicOracle) -> String {
    let s = oracle.stats();
    format!(
        "dynamic:     generation {}, threshold {}, faults baked {} / buffered {}\n\
         labels:      {} resident ({} bytes) of {} on-disk bytes, open mode {}\n\
         rebuilds:    {} total ({} background, {} failed), last {:.2} ms, in-flight: {}\n\
         wal:         {} records / {} bytes since rotation; replayed {} records, \
         truncated {} torn bytes\n\
         health:      carry-over {}, blocked-on-rebuild {}, swap-contended {}\n",
        s.store_generation,
        s.threshold,
        s.baked,
        s.buffered,
        s.resident_labels,
        s.resident_label_bytes,
        s.on_disk_label_bytes,
        s.label_open_mode.map_or("in-memory", OpenMode::name),
        s.rebuilds,
        s.background_rebuilds,
        s.failed_rebuilds,
        s.last_rebuild_ms,
        if s.rebuild_in_flight { "yes" } else { "no" },
        s.wal_records_since_rotation,
        s.wal_bytes_since_rotation,
        s.replayed_records,
        s.replay_truncated_bytes,
        s.carry_over_depth,
        s.blocked_on_rebuild,
        s.serving_swaps_contended,
    )
}
