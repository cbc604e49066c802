//! Pinned output digests, one text file per workload under `pins/`.
//!
//! Testbed lines: `<pool index> <op seed> <digest>`. Fleet lines:
//! `<master seed> <run_fleet checksum> <network digest>...`. Numbers are
//! hex; `#` starts a comment. Regenerate with
//! `perfbench-traced --pin <workload>` (see README.md) only when an output is
//! meant to change.

use crate::workload::{self, Workload, FLEET_NETWORKS, TESTBED_POOL};

/// One pinned testbed operation.
#[derive(Debug, Clone, Copy)]
pub struct TestbedPin {
    pub op_seed: u64,
    pub digest: u64,
}

/// One pinned fleet: its master seed, the `run_fleet` checksum and one
/// digest per network.
#[derive(Debug, Clone)]
pub struct FleetPin {
    pub master: u64,
    pub checksum: u64,
    pub networks: Vec<u64>,
}

fn hex(tok: Option<&str>, line: usize) -> Result<u64, String> {
    let t = tok.ok_or_else(|| format!("pin line {line}: missing field"))?;
    u64::from_str_radix(t, 16).map_err(|_| format!("pin line {line}: bad hex {t:?}"))
}

fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty())
}

pub fn parse_testbed(text: &str) -> Result<Vec<TestbedPin>, String> {
    let mut out = Vec::new();
    for (n, l) in lines(text) {
        let mut t = l.split_whitespace();
        let idx = t
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| format!("pin line {n}: bad index"))?;
        if idx != out.len() {
            return Err(format!("pin line {n}: index {idx} out of order"));
        }
        out.push(TestbedPin {
            op_seed: hex(t.next(), n)?,
            digest: hex(t.next(), n)?,
        });
    }
    if out.len() != TESTBED_POOL {
        return Err(format!("{} testbed pins, want {TESTBED_POOL}", out.len()));
    }
    Ok(out)
}

pub fn parse_fleet(text: &str) -> Result<Vec<FleetPin>, String> {
    let mut out = Vec::new();
    for (n, l) in lines(text) {
        let mut t = l.split_whitespace();
        let master = hex(t.next(), n)?;
        let checksum = hex(t.next(), n)?;
        let networks = t
            .map(|s| hex(Some(s), n))
            .collect::<Result<Vec<u64>, String>>()?;
        if networks.len() != FLEET_NETWORKS {
            return Err(format!("pin line {n}: {} network digests", networks.len()));
        }
        out.push(FleetPin {
            master,
            checksum,
            networks,
        });
    }
    if out.is_empty() {
        return Err("no fleet pins".into());
    }
    Ok(out)
}

/// Compute the pin file of workload `w` from the current code.
pub fn generate(w: Workload) -> String {
    let mut s = format!(
        "# perfbench pins: {} (regenerate with `perfbench-traced --pin {}`)\n",
        w.name(),
        w.name()
    );
    if w.is_testbed() {
        for i in 0..TESTBED_POOL {
            let seed = workload::testbed_op_seed(i);
            let r = netsim::Testbed::new(workload::testbed_config(w, seed))
                .run(workload::testbed_duration());
            s.push_str(&format!(
                "{i} {seed:016x} {:016x}\n",
                workload::testbed_digest(&r)
            ));
        }
    } else {
        // Measure every candidate's tick allocations (two workers, each
        // counting on its own thread), keep the pool closest to their
        // median load, and pin those in candidate order.
        let cands: Vec<u64> = (0..workload::FLEET_CANDIDATES)
            .map(workload::fleet_candidate)
            .collect();
        let mut outs: Vec<(usize, u64, crate::trace::ReplicaOut)> = std::thread::scope(|sc| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let cands = &cands;
                    sc.spawn(move || {
                        (w..cands.len())
                            .step_by(2)
                            .map(|i| (i, cands[i], crate::trace::counted_fleet(cands[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("pin worker panicked"))
                .collect()
        });
        let load = |o: &crate::trace::ReplicaOut| {
            workload::shard_max(&o.tick_allocs.iter().map(|&a| a as f64).collect::<Vec<_>>())
        };
        let target = crate::stats::median(&outs.iter().map(|o| load(&o.2)).collect::<Vec<_>>());
        outs.sort_by(|a, b| {
            (load(&a.2) / target - 1.0)
                .abs()
                .total_cmp(&(load(&b.2) / target - 1.0).abs())
        });
        outs.truncate(workload::FLEET_POOL);
        outs.sort_by_key(|o| o.0);
        for (_, master, out) in &outs {
            s.push_str(&format!("{master:016x} {:016x}", out.checksum));
            for r in &out.reports {
                s.push_str(&format!(" {:016x}", workload::network_digest(r)));
            }
            s.push_str(&format!("  # load {:.4}\n", load(out) / target));
        }
    }
    s
}
