//! Counter-correctness oracle for the `aspp-obs` engine instrumentation.
//!
//! The global counters are process-wide atomics, so every exact-count test
//! lives in this dedicated integration-test binary (its own process) and
//! serializes on [`LOCK`] — the snapshots taken here never race another
//! test's engine work.
//!
//! The counts hold with and without `--features debug-audit`: the
//! engine's own audits and full-pass replays count no engine work.

use std::sync::{Arc, Mutex};

use aspp_obs::counters::Counter;
use aspp_obs::MetricsSnapshot;
use aspp_routing::policy::{DeployedPolicy, DeploymentMap, PolicyKind};
use aspp_routing::{
    AttackStrategy, AttackerModel, BatchRunner, DestinationSpec, ExportMode, RouteWorkspace,
    RoutingEngine,
};
use aspp_topology::{AsGraph, AsGraphBuilder};
use aspp_types::Asn;

static LOCK: Mutex<()> = Mutex::new(());

/// Victim AS2 and attacker AS3 both homed under provider AS1, which also
/// serves bystander stub AS4: four nodes, every clean route one hop from
/// the victim's provider cone. AS1 is on the attacker's clean chain, so
/// an attack here converges without polluting anyone — handy for counting
/// pure propagation work.
fn diamond() -> AsGraph {
    let mut g = AsGraphBuilder::new();
    g.add_provider_customer(Asn(1), Asn(2)).unwrap();
    g.add_provider_customer(Asn(1), Asn(3)).unwrap();
    g.add_provider_customer(Asn(1), Asn(4)).unwrap();
    g.finish()
}

/// Dual-homed attacker: AS3 buys transit from AS1 (the victim's provider,
/// on its clean chain) and from AS5 (off-chain, peered with AS1, serving
/// stub AS6). The stripped announcement pollutes exactly AS5 and AS6.
fn dual_homed() -> AsGraph {
    let mut g = AsGraphBuilder::new();
    g.add_provider_customer(Asn(1), Asn(2)).unwrap();
    g.add_provider_customer(Asn(1), Asn(3)).unwrap();
    g.add_provider_customer(Asn(5), Asn(3)).unwrap();
    g.add_peering(Asn(1), Asn(5)).unwrap();
    g.add_provider_customer(Asn(5), Asn(6)).unwrap();
    g.finish()
}

fn attacked_spec(padding: usize) -> DestinationSpec {
    DestinationSpec::new(Asn(2))
        .origin_padding(padding)
        .attacker(AttackerModel::new(Asn(3)).mode(ExportMode::ViolateValleyFree))
}

#[test]
fn clean_cache_hits_and_misses_match_workspace() {
    let _guard = LOCK.lock().unwrap();
    let graph = diamond();
    let engine = RoutingEngine::new(&graph);
    let mut ws = RouteWorkspace::new();

    let before = MetricsSnapshot::capture();
    // Same (victim, prepend) key five times: 1 miss + 4 hits.
    let spec = attacked_spec(3);
    for _ in 0..5 {
        let _ = engine.compute_with(&spec, &mut ws);
    }
    // A different padding is a different cache key: 1 more miss.
    let _ = engine.compute_with(&attacked_spec(4), &mut ws);
    let delta = MetricsSnapshot::capture().since(&before);

    assert_eq!(delta.get(Counter::CleanCacheHit), 4);
    assert_eq!(delta.get(Counter::CleanCacheMiss), 2);
    // The global counters and the workspace's own tallies agree.
    assert_eq!(delta.cache_hits(), ws.cache_hits());
    assert_eq!(delta.get(Counter::CleanCacheMiss), ws.cache_misses());
}

#[test]
fn batch_unit_is_one_clean_miss_then_hits() {
    let _guard = LOCK.lock().unwrap();
    let graph = dual_homed();
    // A Figure-12-shaped batch: one pair, λ = 1..=8 under both export
    // modes, mode-major — so the two cells of one clean equilibrium sit
    // eight apart in the input.
    let specs: Vec<DestinationSpec> = [ExportMode::Compliant, ExportMode::ViolateValleyFree]
        .into_iter()
        .flat_map(|mode| {
            (1..=8).map(move |padding| {
                DestinationSpec::new(Asn(2))
                    .origin_padding(padding)
                    .attacker(AttackerModel::new(Asn(3)).mode(mode))
            })
        })
        .collect();

    let before = MetricsSnapshot::capture();
    // Serial, so the tallies are exact; the worker's debug assertion also
    // checks that its workspace never holds a second clean pass.
    let polluted = BatchRunner::new()
        .workers(1)
        .run(&graph, &specs, |_, o| o.polluted_count());
    let delta = MetricsSnapshot::capture().since(&before);

    assert_eq!(polluted.len(), 16);
    assert_eq!(delta.get(Counter::BatchVictim), 8, "one unit per λ");
    assert_eq!(delta.get(Counter::CleanCacheMiss), 8);
    assert_eq!(delta.get(Counter::CleanCacheHit), 8);
    assert_eq!(delta.get(Counter::BatchSteal), 0, "a lone worker");
}

#[test]
fn delta_pass_counts_are_exact() {
    let _guard = LOCK.lock().unwrap();
    let graph = dual_homed();
    let engine = RoutingEngine::new(&graph);
    let mut ws = RouteWorkspace::new();
    // The positions one compute's delta pass visited — its dirty set —
    // pinned per kind of pass, so an edit to the propagation loop cannot
    // change its work silently. Clean passes visit every node and are not
    // counted.
    let mut work = |spec: &DestinationSpec| {
        let before = MetricsSnapshot::capture();
        let _ = engine.compute_with(spec, &mut ws);
        MetricsSnapshot::capture()
            .since(&before)
            .get(Counter::DeltaFrontierNode)
    };

    let start = MetricsSnapshot::capture();
    // λ=4: stripping to one origin copy shortens the off-chain offers
    // strictly. AS5 takes the attacker's customer-class offer and AS6
    // AS5's shorter re-export: two nodes visited, every run (the first
    // also pays the clean-pass miss).
    let spec = attacked_spec(4);
    let cold = work(&spec);
    let _ = work(&spec);
    let warm = work(&spec);
    // λ=1: nothing to strip, so the attacker's length-3 customer-class
    // offer displaces AS5's length-2 peer-class clean route — policy beats
    // length, the adoption lengthens the route, and AS5's provider-class
    // re-export to AS6 (length 4) ranks below AS6's clean route through AS5
    // (length 3). AS6 does not take its clean parent's offer, so it
    // re-selects, and takes it as the best left: two nodes visited.
    let corner = attacked_spec(1);
    let _ = work(&corner);
    let lengthened = work(&corner);
    // Poisoning an AS absent from the topology claims `[3 99 1 2]`, one
    // hop longer than the attacker's own clean route `[1 2]`: AS5 adopts
    // the length-4 customer-class offer, and AS6 re-selects its length-5
    // re-export, as in the λ=1 corner.
    let poisoned = DestinationSpec::new(Asn(2)).attacker(
        AttackerModel::new(Asn(3))
            .mode(ExportMode::ViolateValleyFree)
            .strategy(AttackStrategy::PoisonPath { poisoned: Asn(99) }),
    );
    let _ = work(&poisoned);
    let poisoned_pass = work(&poisoned);
    let unpolicied = MetricsSnapshot::capture().since(&start);
    // ASPA everywhere on the λ=4 attack: AS5 refuses the provider-learned
    // route the attacker re-announces, and AS1 is on the chain, so the
    // pass visits nobody.
    let aspa = DeployedPolicy::new(
        PolicyKind::Aspa,
        DeploymentMap::from_indices(graph.len(), 0..graph.len()),
    );
    let before = MetricsSnapshot::capture();
    let policied = work(&spec.defense(Arc::new(aspa)));
    let policy = MetricsSnapshot::capture().since(&before);
    // An origin hijack by AS3 at λ=4 with ROV at stub AS6 alone: AS1 and AS5
    // adopt the forged origin, and AS6 refuses it from AS5, its own clean
    // parent. AS6 re-selects, is refused again, and ends routeless: three
    // nodes visited.
    let hijack = DestinationSpec::new(Asn(2)).origin_padding(4).attacker(
        AttackerModel::new(Asn(3))
            .mode(ExportMode::ViolateValleyFree)
            .strategy(AttackStrategy::OriginHijack),
    );
    let rov = DeployedPolicy::new(PolicyKind::Rov, DeploymentMap::from_asns(&graph, [Asn(6)]));
    let before = MetricsSnapshot::capture();
    let orphaned = work(&hijack.defense(Arc::new(rov)));
    let orphan = MetricsSnapshot::capture().since(&before);
    let total = MetricsSnapshot::capture().since(&start);

    // Every attacked compute is one delta pass.
    assert_eq!(ws.delta_passes(), 9);
    assert_eq!(unpolicied.get(Counter::DeltaPass), 7);
    assert_eq!(total.get(Counter::DeltaPass), ws.delta_passes());
    assert_eq!(unpolicied.get(Counter::DeltaFrontierNode), 7 * 2);
    assert_eq!(unpolicied.get(Counter::PolicyReject), 0);
    assert_eq!((cold, warm, lengthened, poisoned_pass), (2, 2, 2, 2));
    // One reject (AS5's), no node visited.
    assert_eq!(policied, 0);
    assert_eq!(policy.get(Counter::DeltaPass), 1);
    assert_eq!(policy.get(Counter::PolicyReject), 1);
    // The defended cell shares the undefended cells' clean pass.
    assert_eq!(policy.get(Counter::CleanCacheHit), 1);
    assert_eq!(policy.get(Counter::CleanCacheMiss), 0);
    // AS6 refuses the offer of its clean parent and then, re-selecting,
    // the same offer again: two rejects.
    assert_eq!(orphaned, 3);
    assert_eq!(orphan.get(Counter::DeltaPass), 1);
    assert_eq!(orphan.get(Counter::PolicyReject), 2);
}

#[test]
fn dirty_set_counters_track_propagation_work() {
    let _guard = LOCK.lock().unwrap();
    let graph = dual_homed();
    let engine = RoutingEngine::new(&graph);
    // Cache disabled: every compute runs its clean pass again.
    let mut cold = RouteWorkspace::with_cache_capacity(0);

    // A clean compute is one full pass: no delta pass, nothing counted.
    let before = MetricsSnapshot::capture();
    let _ = engine.compute_with(&DestinationSpec::new(Asn(2)).origin_padding(1), &mut cold);
    let delta = MetricsSnapshot::capture().since(&before);
    assert_eq!(delta.get(Counter::DeltaPass), 0);
    assert_eq!(delta.get(Counter::DeltaFrontierNode), 0);
    assert_eq!(delta.get(Counter::CleanCacheMiss), 1);

    // The λ=4 strip: AS5 and AS6 change.
    let before = MetricsSnapshot::capture();
    let _ = engine.compute_with(&attacked_spec(4), &mut cold);
    let delta = MetricsSnapshot::capture().since(&before);
    assert_eq!(delta.get(Counter::DeltaPass), 1);
    assert_eq!(delta.get(Counter::DeltaFrontierNode), 2);
    assert_eq!(delta.get(Counter::CleanCacheMiss), 1);

    // The same delta pass at λ=300 keeping 256 origin copies: lengths are
    // no bound on the loop, which visits the same two nodes.
    let spec = DestinationSpec::new(Asn(2)).origin_padding(300).attacker(
        AttackerModel::new(Asn(3))
            .mode(ExportMode::ViolateValleyFree)
            .keep(256),
    );
    let before = MetricsSnapshot::capture();
    let _ = engine.compute_with(&spec, &mut cold);
    let delta = MetricsSnapshot::capture().since(&before);
    assert_eq!(delta.get(Counter::DeltaPass), 1);
    assert_eq!(delta.get(Counter::DeltaFrontierNode), 2);
}

#[test]
fn audit_counters_record_checks_and_violations() {
    let _guard = LOCK.lock().unwrap();
    let graph = diamond();
    let engine = RoutingEngine::new(&graph);
    let mut ws = RouteWorkspace::new();

    // The compute stays outside the bracket: under `debug-audit` the
    // engine audits its own outcome too.
    let outcome = engine.compute_with(&attacked_spec(3), &mut ws);
    let before = MetricsSnapshot::capture();
    let report = aspp_routing::audit::audit_outcome(&outcome);
    let delta = MetricsSnapshot::capture().since(&before);

    assert!(report.is_clean());
    assert_eq!(delta.get(Counter::AuditCheck), 1);
    assert_eq!(delta.get(Counter::AuditViolation), 0);
}
