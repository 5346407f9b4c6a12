//! Reduced-size smoke test of every workload: two runs give equal
//! simulated results, every check passes, and every metric the command
//! prints is declared in `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use perfbench::{Options, Size, Workload};

/// Names declared under `section` ("end_to_end" or "per_layer").
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("quoted name") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

fn smoke(workload: Workload, out: &str) -> perfbench::Outcome {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace: true,
        size: Size::Smoke,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out),
    };
    perfbench::run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_is_reproducible_and_fully_declared() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let a = smoke(w, "smoke-a");
        let b = smoke(w, "smoke-b");
        assert!(a.correct, "{}: {:?}", w.name(), a.failures);
        assert_eq!(a.failed, 0, "{}", w.name());
        assert_eq!(a.scenarios.len(), 2, "{}", w.name());
        assert_eq!(a.scenarios, b.scenarios, "{}: two runs disagree", w.name());
        let names = |ms: &[perfbench::Metric]| -> BTreeSet<String> {
            ms.iter().map(|m| m.name.clone()).collect()
        };
        assert_eq!(names(&a.end_to_end), end_to_end, "{}", w.name());
        assert_eq!(names(&a.per_layer), per_layer, "{}", w.name());
        for m in &a.end_to_end {
            assert!(m.value > 0.0, "{}: {} must never be 0", w.name(), m.name);
        }
        let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("smoke-a")
            .join(format!("{}-seed3.spans.json", w.name()));
        assert!(spans.exists(), "{} not written", spans.display());
    }
}

#[test]
fn counts_show_what_each_workload_exercises() {
    let count =
        |o: &perfbench::Outcome, name: &str| o.scenarios[0].counts.get(name).copied().unwrap_or(0);
    let memcached = smoke(Workload::EthMemcached, "purpose");
    let overcommit = smoke(Workload::EthOvercommit, "purpose");
    let incast = smoke(Workload::RdmaLossyIncast, "purpose");
    let odp = smoke(Workload::RdmaOdpPressure, "purpose");
    assert_eq!(count(&memcached, "memsim.evictions"), 0);
    assert!(count(&overcommit, "memsim.evictions") > 0);
    assert!(count(&incast, "rdmasim.retransmits") > 0);
    for o in [&memcached, &overcommit, &odp] {
        assert_eq!(count(o, "rdmasim.retransmits"), 0);
    }
    assert!(count(&odp, "npf.events") > 10 * count(&incast, "npf.events"));
}

#[test]
fn bad_usage_exits_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
