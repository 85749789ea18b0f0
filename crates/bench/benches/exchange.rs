//! Bench + regression report for the collaborative-exchange layer.
//!
//! Four phases, all deterministic:
//!
//! 1. **Merge throughput** — CRDT join of a 10k-signature antibody pack
//!    into a half-overlapping one (entries/second), plus the codec cost of
//!    a full save/load round-trip with integrity verification — the price
//!    a process pays to import a fleet pack.
//! 2. **Trust-gate sweep** — 10k foreign signatures admitted to a
//!    [`PendingSet`], then activated by observing their outer positions;
//!    every one must make it through the gate.
//! 3. **Runtime screening overhead** — a runtime that imported 10k foreign
//!    antibodies (none matching any local site) runs a hot acquire/release
//!    loop: the per-acquisition screening cost with a large quarantine, and
//!    the proof that quarantined antibodies cause **zero** refusals or
//!    parks before activation.
//! 4. **Fleet convergence** — the `fleet_convergence` experiment: one
//!    process detects, every importer avoids on its first encounter
//!    (acceptance 1.0), and the merged contribution packs collapse to one
//!    entry.
//!
//! Writes `BENCH_exchange.json`; `check_bench` gates the acceptance ratio
//! and the no-refusals-before-activation invariant.

use dimmunix_bench::report::{write_bench_json, BenchJson};
use dimmunix_bench::workloads::synthetic_history;
use dimmunix_exchange::{Pack, PendingSet};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ExchangeOptions};
use dimmunix_sim::fleet::fleet_convergence;
use std::time::Instant;

const PACK_SIZE: usize = 10_000;
const MERGE_ROUNDS: usize = 20;
const ACQUIRE_OPS: usize = 100_000;

fn main() {
    // Phase 1: merge throughput and import-codec cost at 10k signatures.
    let full_history = synthetic_history(PACK_SIZE);
    let mut full = Pack::new("bench-a");
    let mut half = Pack::new("bench-b");
    for (i, (_, sig)) in full_history.iter().enumerate() {
        full.add(sig.clone(), 1);
        if i % 2 == 0 {
            half.add(sig.clone(), 2);
        }
    }
    let start = Instant::now();
    let mut merged_new = 0usize;
    for _ in 0..MERGE_ROUNDS {
        let mut target = half.clone();
        merged_new += target.merge(&full);
    }
    let merge_elapsed = start.elapsed();
    let merge_entries_per_sec = (MERGE_ROUNDS * PACK_SIZE) as f64 / merge_elapsed.as_secs_f64();
    println!(
        "merge: {MERGE_ROUNDS} joins of {PACK_SIZE} entries in {merge_elapsed:.0?} — \
         {merge_entries_per_sec:.0} entries/s ({merged_new} newly merged)",
    );

    let text = full.to_json();
    let start = Instant::now();
    let reloaded = Pack::from_json(&text).expect("pack round-trips");
    let decode_elapsed = start.elapsed();
    assert_eq!(reloaded.len(), PACK_SIZE);
    assert_eq!(reloaded.fingerprint(), full.fingerprint());
    let import_verify_us_per_sig = decode_elapsed.as_secs_f64() * 1e6 / PACK_SIZE as f64;
    println!(
        "import codec: {PACK_SIZE} signatures verified in {decode_elapsed:.0?} — \
         {import_verify_us_per_sig:.2} us/signature",
    );

    // Phase 2: the trust-gate sweep — every foreign antibody activates once
    // its outer positions are observed locally.
    let mut pending = PendingSet::new();
    for (_, entry) in full.entries() {
        pending.admit(entry.signature.clone(), entry.detections);
    }
    let outer_stacks: Vec<_> = full
        .entries()
        .flat_map(|(_, e)| e.signature.outer_stacks().cloned().collect::<Vec<_>>())
        .collect();
    let start = Instant::now();
    let mut activated = 0usize;
    for stack in &outer_stacks {
        activated += pending.observe_position(stack).len();
    }
    let sweep_elapsed = start.elapsed();
    assert_eq!(activated, PACK_SIZE, "every antibody must pass the gate");
    assert!(pending.is_empty());
    println!(
        "trust gate: {activated} antibodies activated by {} observations in {sweep_elapsed:.0?}",
        outer_stacks.len(),
    );

    // Phase 3: runtime screening overhead with a 10k-entry quarantine. The
    // synthetic outer sites never match the benchmark's acquisition site,
    // so nothing may activate, park, or be refused — the quarantine must be
    // pure (cheap) screening.
    let dir = std::env::temp_dir().join(format!("dimmunix-exch-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let pack_path = dir.join("bench.pack");
    full.save(&pack_path).expect("save bench pack");
    let rt = DimmunixRuntime::builder()
        .exchange(ExchangeOptions::new("bench-importer").import(&pack_path))
        .build();
    let lock = rt.allocate_lock();
    let site = AcquisitionSite::new("bench.exchange.hot", "exchange_bench.rs", 1);
    let start = Instant::now();
    for _ in 0..ACQUIRE_OPS {
        rt.before_acquire(lock, site).expect("no refusal");
        rt.after_acquire(lock);
        rt.before_release(lock);
    }
    let screen_elapsed = start.elapsed();
    let screening_ns_per_acquire = screen_elapsed.as_secs_f64() * 1e9 / ACQUIRE_OPS as f64;
    let stats = rt.stats();
    let exchange = rt.exchange_stats().expect("exchange configured");
    let foreign_refusals_before_activation = stats.deadlocks_detected + stats.yields;
    assert_eq!(exchange.imported as usize, PACK_SIZE);
    assert_eq!(exchange.pending as usize, PACK_SIZE, "nothing may activate");
    assert_eq!(exchange.activated, 0);
    println!(
        "screening: {ACQUIRE_OPS} acquisitions against a {PACK_SIZE}-entry quarantine in \
         {screen_elapsed:.0?} — {screening_ns_per_acquire:.0} ns/acquire, \
         {foreign_refusals_before_activation} refusals/parks",
    );
    std::fs::remove_dir_all(&dir).ok();

    // Phase 4: fleet convergence through the sim layer.
    let fleet = fleet_convergence(4, 0xf1ee7);
    let importers = (fleet.processes - 1) as f64;
    let imported_avoided_acceptance = if fleet.converged {
        1.0 - f64::from(fleet.deadlocks_after_exchange) / importers
    } else {
        0.0
    };
    println!(
        "fleet: {} processes, {} detection(s) total, {} after exchange, merged pack {} \
         entr{} — acceptance {imported_avoided_acceptance}",
        fleet.processes,
        fleet.detections_total,
        fleet.deadlocks_after_exchange,
        fleet.merged_pack_entries,
        if fleet.merged_pack_entries == 1 {
            "y"
        } else {
            "ies"
        },
    );

    let report = BenchJson::new()
        .str("bench", "exchange")
        .int("pack_size", PACK_SIZE as u64)
        .num("merge_entries_per_sec", merge_entries_per_sec)
        .num("import_verify_us_per_sig", import_verify_us_per_sig)
        .int("gate_activated", activated as u64)
        .num("screening_ns_per_acquire", screening_ns_per_acquire)
        .int(
            "foreign_refusals_before_activation",
            foreign_refusals_before_activation,
        )
        .int("fleet_processes", fleet.processes as u64)
        .int("fleet_detections_total", u64::from(fleet.detections_total))
        .int(
            "fleet_deadlocks_after_exchange",
            u64::from(fleet.deadlocks_after_exchange),
        )
        .int(
            "fleet_merged_pack_entries",
            fleet.merged_pack_entries as u64,
        )
        .num("imported_avoided_acceptance", imported_avoided_acceptance);
    let path = write_bench_json("exchange", &report).expect("write bench report");
    println!("report: {}", path.display());
}
