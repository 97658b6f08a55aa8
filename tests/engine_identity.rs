//! §IV preamble verification, at integration scope: "the sequential and
//! parallel versions yield the exact same results for all datasets — the
//! same number of stand trees, intermediate states, and dead ends", and
//! "the stands generated by the serial and parallel versions are
//! identical, that is, they comprise the exact same trees".

use gentrius_core::{CollectNewick, GentriusConfig, StoppingRules};
use gentrius_datagen::{empirical_dataset, simulated_dataset, EmpiricalParams, SimulatedParams};
use gentrius_parallel::{run_parallel, run_parallel_epoch, ParallelConfig};
use gentrius_sim::{simulate, SimConfig};

fn small_sweep() -> Vec<gentrius_datagen::Dataset> {
    let sp = SimulatedParams {
        taxa: (10, 16),
        loci: (3, 5),
        missing: (0.3, 0.5),
        pattern: gentrius_datagen::MissingPattern::Uniform,
        shape: phylo::generate::ShapeModel::Uniform,
    };
    let ep = EmpiricalParams {
        taxa: (10, 16),
        loci: (3, 5),
        frac_with_missing: 0.8,
        frac_heavy_missing: 0.3,
    };
    let mut v: Vec<_> = (0..6).map(|i| simulated_dataset(&sp, 555, i)).collect();
    v.extend((0..6).map(|i| empirical_dataset(&ep, 555, i)));
    v
}

fn bounded_config() -> GentriusConfig {
    GentriusConfig {
        stopping: StoppingRules::counts(200_000, 1_000_000),
        ..GentriusConfig::default()
    }
}

#[test]
fn counters_identical_across_all_three_engines() {
    let config = bounded_config();
    for d in small_sweep() {
        let p = d.problem().expect("valid dataset");
        let serial =
            gentrius_core::run_serial(&p, &config, &mut gentrius_core::CountOnly).expect("serial");
        if !serial.complete() {
            continue; // identity is only exact for complete enumerations
        }
        for threads in [2usize, 4] {
            let par = run_parallel(&p, &config, &ParallelConfig::with_threads(threads))
                .expect("parallel");
            assert!(par.complete(), "{}", d.name);
            assert_eq!(par.stats, serial.stats, "{} threads={threads}", d.name);
        }
        for threads in [3usize, 16] {
            let sim = simulate(&p, &config, &SimConfig::with_threads(threads)).expect("sim");
            assert!(sim.complete(), "{}", d.name);
            assert_eq!(sim.stats, serial.stats, "{} sim threads={threads}", d.name);
        }
    }
}

#[test]
fn stand_sets_identical_serial_vs_parallel() {
    let config = bounded_config();
    let mut verified = 0;
    for d in small_sweep() {
        let p = d.problem().expect("valid dataset");
        let mut serial_sink = CollectNewick::with_cap(&d.taxa, 300_000);
        let serial = gentrius_core::run_serial(&p, &config, &mut serial_sink).expect("serial");
        if !serial.complete() {
            continue;
        }
        let (par, sinks, _) = run_parallel_epoch(
            &p,
            &config,
            &ParallelConfig::with_threads(3),
            |_| CollectNewick::with_cap(&d.taxa, 300_000),
            None,
            false,
        )
        .expect("parallel");
        assert!(par.complete());
        let mut serial_set = serial_sink.out;
        serial_set.sort();
        let mut par_set: Vec<String> = sinks.into_iter().flat_map(|s| s.out).collect();
        par_set.sort();
        assert_eq!(serial_set, par_set, "{}: stand sets differ", d.name);
        // No duplicates in either.
        let mut dedup = serial_set.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), serial_set.len(), "{}: duplicates", d.name);
        verified += 1;
    }
    assert!(
        verified >= 4,
        "too few fully-enumerable datasets ({verified})"
    );
}

#[test]
fn species_tree_always_on_the_stand() {
    let config = bounded_config();
    for d in small_sweep() {
        let p = d.problem().expect("valid dataset");
        let species = d
            .species_tree
            .as_ref()
            .expect("generated datasets have one");
        let mut found = false;
        let mut sink = |t: &phylo::Tree| {
            if phylo::split::topo_eq(t, species) {
                found = true;
            }
        };
        let r = gentrius_core::run_serial(&p, &config, &mut sink).expect("serial");
        if r.complete() {
            assert!(found, "{}: source tree not enumerated", d.name);
        }
    }
}
