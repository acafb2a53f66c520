//! Streaming detection over a live BGP update feed.
//!
//! The paper envisions a PHAS-like service: "examine BGP routing data
//! collected by the route monitors … and provide real time notifications of
//! any potential ASPP based prefix interception hijacking to the prefix
//! owner" (Section V). [`StreamingDetector`] is that service: seed it with
//! the monitors' RIB snapshot, feed it update records in arrival order, and
//! collect alarms the moment the inconsistency becomes visible.
//!
//! # Hot path
//!
//! The paper's check is triggered by *one* route change at one AS, and a
//! resident service has to cost what changed, not what it holds. Per tracked
//! prefix the detector keeps, alive across updates and mutated in lockstep:
//!
//! * the *before*/*after* [`RouteView`]s and the scan index (`ViewIndex`)
//!   over the after-view — a replaced path adds and removes only its own
//!   suffixes;
//! * the standing *candidates*: every route change `(d, r_prev, r_now)` that
//!   passes the path-only half of Figure 4 (same origin, fewer pads, not the
//!   origin's own doing). An announcement judges these against the index —
//!   usually there are none — instead of walking the view.
//!
//! The candidate set is exact, not a heuristic: the candidates of an AS `d`
//! are a pure function of `d`'s route lists in the two views
//! (`candidate_pairs`), and a route list changes, in content or in order,
//! only when a suffix headed by `d` enters or leaves a view — which is
//! precisely what `RouteView::{add,remove}_path_with` report. Re-deriving
//! the groups of the reported ASes therefore leaves the same candidates a
//! walk over every observed AS would find, and judging them is the other
//! half of the one Figure 4 implementation the batch
//! [`Detector::scan`] runs. [`ReferenceDetector`] — rebuild everything from
//! the path maps on every record, scan every AS — is the oracle the tests
//! hold this to, record by record.
//!
//! The raised-alarm keys that keep the stream idempotent are held per
//! prefix, so a withdrawal re-arms its own prefix's keys without touching
//! any other's. They live *beside* the per-prefix state, not inside it: a
//! key observed at a transit AS is re-armed by no monitor's withdrawal and
//! so outlives the prefix's last monitor, and a later announcement of the
//! same prefix must still find it.
//!
//! An announcement judges only the candidates that can still be news: those
//! whose `(suspect, observed_at)` key is not raised yet. This is exact too.
//! A candidate's alarm carries the candidate's own key, so the alarms of a
//! raised key come from raised-key candidates only — and they are the very
//! alarms the idempotence filter would drop. The candidates of one key are
//! skipped or judged together, and equal alarms and ties of judging's
//! stable sort share a key, so the alarms of the judged keys come out
//! exactly as, and in the order, they did when every candidate was judged.
//! A withdrawal re-arms keys, and the candidates behind them are judged
//! again from the next announcement on.
//!
//! The state a checkpoint stores leaves the detector through one walk,
//! [`StateRows`]: the path-map rows in canonical order, borrowed. A
//! checkpoint is encoded straight from them;
//! [`export_state`](StreamingDetector::export_state) is the same rows with
//! the paths cloned.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aspp_data::{UpdateAction, UpdateRecord};
use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn, Ipv4Prefix};

use crate::detector::{candidate_pairs, Alarm, Candidate, Detector, ViewIndex};
use crate::view::RouteView;

/// An alarm raised by the streaming detector, tagged with its trigger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamAlarm {
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Sequence number of the update that exposed the attack.
    pub triggered_by_seq: u64,
    /// The underlying detection alarm.
    pub alarm: Alarm,
}

/// Everything the detector tracks for one prefix: the authoritative path
/// maps, plus the derived views, scan index and candidates kept in lockstep
/// so `process` never rebuilds them.
///
/// The mutators push the head AS of every suffix that entered or left a
/// view onto `touched`; the caller hands that list to
/// [`refresh`](Self::refresh) once the update is applied.
#[derive(Clone, Debug, Default)]
struct PrefixState {
    /// Current announced path per monitor.
    current: HashMap<Asn, AsPath>,
    /// Previous path per monitor, for before/after comparison.
    previous: HashMap<Asn, AsPath>,
    /// Suffix-expanded view of `current`, incrementally maintained.
    current_view: RouteView,
    /// Suffix-expanded view of `previous`, incrementally maintained.
    previous_view: RouteView,
    /// Scan index over `current_view`, incrementally maintained.
    index: ViewIndex,
    /// `candidate_pairs` of every observed AS, one contiguous group per AS.
    candidates: Vec<Candidate>,
}

impl PrefixState {
    /// Replaces the monitor's current path, returning the displaced one;
    /// view and index follow.
    fn current_insert(
        &mut self,
        monitor: Asn,
        path: AsPath,
        touched: &mut Vec<Asn>,
    ) -> Option<AsPath> {
        let old = self.current.insert(monitor, path.clone());
        if old.as_ref() != Some(&path) {
            let index = &mut self.index;
            if let Some(old) = &old {
                self.current_view.remove_path_with(old, |gone| {
                    index.remove_route(gone.hops());
                    touched.extend(gone.first());
                });
            }
            self.current_view.add_path_with(&path, |new| {
                index.add_route(new.hops());
                touched.extend(new.first());
            });
        }
        old
    }

    /// Removes the monitor's current path (withdrawal); view and index
    /// follow.
    fn current_remove(&mut self, monitor: Asn, touched: &mut Vec<Asn>) {
        if let Some(old) = self.current.remove(&monitor) {
            let index = &mut self.index;
            self.current_view.remove_path_with(&old, |gone| {
                index.remove_route(gone.hops());
                touched.extend(gone.first());
            });
        }
    }

    /// Replaces the monitor's previous path; the before-view follows.
    fn previous_insert(&mut self, monitor: Asn, path: AsPath, touched: &mut Vec<Asn>) {
        let old = self.previous.insert(monitor, path.clone());
        if old.as_ref() != Some(&path) {
            if let Some(old) = &old {
                self.previous_view
                    .remove_path_with(old, |gone| touched.extend(gone.first()));
            }
            self.previous_view
                .add_path_with(&path, |new| touched.extend(new.first()));
        }
    }

    /// Removes the monitor's previous path; the before-view follows.
    fn previous_remove(&mut self, monitor: Asn, touched: &mut Vec<Asn>) {
        if let Some(old) = self.previous.remove(&monitor) {
            self.previous_view
                .remove_path_with(&old, |gone| touched.extend(gone.first()));
        }
    }

    /// Brings the candidates back in line after an update: drops and
    /// re-derives the groups of the `touched` ASes (sorted and de-duplicated
    /// here), and only those. Nothing to do when no suffix entered or left.
    fn refresh(&mut self, touched: &mut Vec<Asn>) {
        if touched.is_empty() {
            return;
        }
        touched.sort_unstable();
        touched.dedup();
        self.candidates
            .retain(|c| touched.binary_search(&c.d).is_err());
        for &d in touched.iter() {
            candidate_pairs(
                d,
                &self.previous_view,
                &self.current_view,
                &mut self.candidates,
            );
        }
    }

    /// Derives the candidates of every observed AS from scratch.
    fn derive_candidates(&mut self) {
        self.candidates.clear();
        for d in self.current_view.observed_asns() {
            candidate_pairs(
                d,
                &self.previous_view,
                &self.current_view,
                &mut self.candidates,
            );
        }
    }

    /// True when no monitor holds any state — the prefix can be pruned.
    fn is_dead(&self) -> bool {
        self.current.is_empty() && self.previous.is_empty()
    }
}

/// Canonical, order-independent snapshot of a [`StreamingDetector`]'s
/// mutable state: the per-(prefix, monitor) path maps plus the raised-alarm
/// keys, each sorted. Two detectors that processed the same stream export
/// equal states, regardless of hash-map iteration order — which is what lets
/// a checkpoint written by one process restore bit-identical behavior in
/// another.
///
/// The derived views and scan index are deliberately *not* part of the
/// state: they are a pure function of the path maps and are rebuilt on
/// [`import`](StreamingDetector::import_state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectorState {
    /// `(prefix, monitor, path)` rows of the current-path map, sorted.
    pub current: Vec<(Ipv4Prefix, Asn, AsPath)>,
    /// `(prefix, monitor, path)` rows of the previous-path map, sorted.
    pub previous: Vec<(Ipv4Prefix, Asn, AsPath)>,
    /// `(prefix, suspect, observed_at)` raised-alarm keys, sorted.
    pub raised: Vec<(Ipv4Prefix, Asn, Asn)>,
}

/// A [`DetectorState`] whose paths are borrowed from the detectors holding
/// them: the same rows, in the same canonical order. It is the one walk over
/// a detector's mutable state — a checkpoint is encoded from it without
/// cloning a path, and [`to_state`](Self::to_state) is its owned form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateRows<'a> {
    /// `(prefix, monitor, path)` rows of the current-path map, sorted.
    pub current: Vec<(Ipv4Prefix, Asn, &'a AsPath)>,
    /// `(prefix, monitor, path)` rows of the previous-path map, sorted.
    pub previous: Vec<(Ipv4Prefix, Asn, &'a AsPath)>,
    /// `(prefix, suspect, observed_at)` raised-alarm keys, sorted.
    pub raised: Vec<(Ipv4Prefix, Asn, Asn)>,
}

impl<'a> StateRows<'a> {
    /// The rows of `detectors`, merged and sorted. The detectors must hold
    /// disjoint prefixes, as the shards of a feed engine do; then every
    /// `(prefix, monitor)` is one row and the order is canonical.
    #[must_use]
    pub fn of(detectors: impl IntoIterator<Item = &'a StreamingDetector>) -> Self {
        let mut rows = StateRows::default();
        let mut states = Vec::new();
        for detector in detectors {
            states.extend(&detector.states);
            for (&prefix, keys) in &detector.raised {
                let row = |&(suspect, observed_at)| (prefix, suspect, observed_at);
                rows.raised.extend(keys.iter().map(row));
            }
        }
        // Prefix-major: sort the prefixes, then each prefix's few monitors.
        states.sort_unstable_by_key(|&(&prefix, _)| prefix);
        for (&prefix, st) in states {
            for (rows, paths) in [
                (&mut rows.current, &st.current),
                (&mut rows.previous, &st.previous),
            ] {
                let from = rows.len();
                rows.extend(paths.iter().map(|(&monitor, path)| (prefix, monitor, path)));
                rows[from..].sort_unstable_by_key(|&(_, monitor, _)| monitor);
            }
        }
        rows.raised.sort_unstable();
        rows
    }

    /// The owned form: the same rows, every path cloned.
    #[must_use]
    pub fn to_state(&self) -> DetectorState {
        let owned = |rows: &[(Ipv4Prefix, Asn, &AsPath)]| {
            rows.iter()
                .map(|&(prefix, monitor, path)| (prefix, monitor, path.clone()))
                .collect()
        };
        DetectorState {
            current: owned(&self.current),
            previous: owned(&self.previous),
            raised: self.raised.clone(),
        }
    }
}

/// Incremental multi-prefix detector state.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use aspp_detect::realtime::StreamingDetector;
/// use aspp_data::{UpdateAction, UpdateRecord};
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut graph = AsGraphBuilder::new();
/// graph.add_provider_customer(Asn(10), Asn(1))?;
/// graph.add_provider_customer(Asn(10), Asn(66))?;
/// graph.add_provider_customer(Asn(10), Asn(55))?;
/// graph.add_provider_customer(Asn(66), Asn(77))?;
/// let graph = graph.finish();
///
/// let prefix = "10.0.0.0/24".parse()?;
/// let mut detector = StreamingDetector::shared(Arc::new(graph));
/// // RIB seeds: monitor 77 routes via the soon-to-be attacker 66; honest
/// // monitor 55 provides the padded witness route through the same AS10.
/// detector.seed(Asn(77), prefix, "77 66 10 1 1 1".parse()?);
/// detector.seed(Asn(55), prefix, "55 10 1 1 1".parse()?);
///
/// // Live update: 66 suddenly announces a stripped route.
/// let alarms = detector.process(&UpdateRecord {
///     seq: 1,
///     monitor: Asn(77),
///     prefix,
///     action: UpdateAction::Announce("77 66 10 1".parse()?),
/// });
/// assert!(!alarms.is_empty());
/// assert_eq!(alarms[0].alarm.suspect, Asn(66));
/// # Ok(())
/// # }
/// ```
/// The detector co-owns the relationship graph through an `Arc`: the
/// immutable graph baseline is decoupled from the mutable per-stream alarm
/// state, so a sharded pipeline (see the `aspp-feed` crate) can hand each
/// worker thread its own fully-owned, `Send` detector without a single
/// borrow tying the workers together.
#[derive(Clone, Debug)]
pub struct StreamingDetector {
    graph: Arc<AsGraph>,
    /// Per-prefix path maps, views, and index. Entries are pruned the
    /// moment their last monitor withdraws, so a resident service's memory
    /// tracks *live* state, not every prefix ever seen.
    states: HashMap<Ipv4Prefix, PrefixState>,
    /// `(suspect, observed_at)` of the alarms already raised, per prefix, to
    /// keep the stream idempotent. Not part of `states`: a prefix's keys
    /// outlive its last monitor (see the module docs). No entry is empty.
    raised: HashMap<Ipv4Prefix, HashSet<(Asn, Asn)>>,
    /// Scratch: the ASes whose candidate groups the last update re-derived.
    touched: Vec<Asn>,
}

impl StreamingDetector {
    /// Creates a detector co-owning the (possibly inferred) relationship
    /// graph. The result is `Send + 'static`: it can move onto a worker
    /// thread outliving the scope that built the graph, which is what the
    /// feed pipeline's shard workers do.
    #[must_use]
    pub fn shared(graph: Arc<AsGraph>) -> Self {
        StreamingDetector {
            graph,
            states: HashMap::new(),
            raised: HashMap::new(),
            touched: Vec::new(),
        }
    }

    /// The relationship graph the detector consults.
    #[must_use]
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// Installs a RIB-snapshot route (no detection is run on seeds).
    pub fn seed(&mut self, monitor: Asn, prefix: Ipv4Prefix, path: AsPath) {
        let touched = &mut self.touched;
        touched.clear();
        let st = self.states.entry(prefix).or_default();
        st.current_insert(monitor, path.clone(), touched);
        st.previous_insert(monitor, path, touched);
        st.refresh(touched);
    }

    /// Seeds every monitor table of a corpus as the RIB snapshot.
    pub fn seed_from_corpus(&mut self, corpus: &aspp_data::Corpus) {
        for (monitor, table) in corpus.tables() {
            for (prefix, path) in table.iter() {
                self.seed(monitor, prefix, path.clone());
            }
        }
    }

    /// Number of prefixes with live state.
    #[must_use]
    pub fn tracked_prefixes(&self) -> usize {
        self.states.len()
    }

    /// Number of monitors currently announcing `prefix`.
    #[must_use]
    pub fn monitors_of(&self, prefix: Ipv4Prefix) -> usize {
        self.states.get(&prefix).map_or(0, |st| st.current.len())
    }

    /// Exports the mutable stream state in canonical (sorted) form.
    #[must_use]
    pub fn export_state(&self) -> DetectorState {
        StateRows::of([self]).to_state()
    }

    /// Replaces the mutable stream state with an exported snapshot,
    /// rebuilding the derived views and index. After `import_state`, the
    /// detector behaves exactly as the one that exported — processing the
    /// same tail of updates yields the same alarms.
    pub fn import_state(&mut self, state: &DetectorState) {
        self.states.clear();
        self.raised.clear();
        // The candidates are derived wholesale once every row is in, so what
        // each row touched is dropped unread.
        let touched = &mut self.touched;
        for (prefix, monitor, path) in &state.current {
            self.states
                .entry(*prefix)
                .or_default()
                .current_insert(*monitor, path.clone(), touched);
            touched.clear();
        }
        for (prefix, monitor, path) in &state.previous {
            self.states.entry(*prefix).or_default().previous_insert(
                *monitor,
                path.clone(),
                touched,
            );
            touched.clear();
        }
        for st in self.states.values_mut() {
            st.derive_candidates();
        }
        for &(prefix, suspect, observed_at) in &state.raised {
            self.raised
                .entry(prefix)
                .or_default()
                .insert((suspect, observed_at));
        }
    }

    /// Applies one update and returns any *new* alarms it exposes.
    pub fn process(&mut self, update: &UpdateRecord) -> Vec<StreamAlarm> {
        let touched = &mut self.touched;
        touched.clear();
        match &update.action {
            UpdateAction::Withdraw => {
                // A withdrawal cannot shorten padding; it tears down the
                // monitor's observation state for this prefix instead. Both
                // path baselines go (so a re-announce with a legitimately
                // different padding level is judged fresh, not against
                // pre-withdrawal history), and the monitor's raised-alarm
                // keys are re-armed (so an attack repeated after the
                // withdrawal is reported again instead of being masked by
                // idempotence state from the earlier episode).
                if let Some(st) = self.states.get_mut(&update.prefix) {
                    st.current_remove(update.monitor, touched);
                    st.previous_remove(update.monitor, touched);
                    if st.is_dead() {
                        self.states.remove(&update.prefix);
                    } else {
                        st.refresh(touched);
                    }
                }
                if let Some(keys) = self.raised.get_mut(&update.prefix) {
                    keys.retain(|&(_, observed_at)| observed_at != update.monitor);
                    if keys.is_empty() {
                        self.raised.remove(&update.prefix);
                    }
                }
                Vec::new()
            }
            UpdateAction::Announce(path) => {
                let st = self.states.entry(update.prefix).or_default();
                if let Some(old) = st.current_insert(update.monitor, path.clone(), touched) {
                    st.previous_insert(update.monitor, old, touched);
                }
                st.refresh(touched);
                if st.candidates.is_empty() {
                    return Vec::new();
                }

                // Judge the standing route changes — previous paths against
                // current ones — over the live index, skipping those whose
                // alarm is raised already (exact: see the module docs).
                let raised = self.raised.get(&update.prefix);
                let open = st
                    .candidates
                    .iter()
                    .filter(|c| raised.is_none_or(|keys| !keys.contains(&c.key())));
                let alarms = Detector::new(&self.graph).judge(open, &st.index);
                if alarms.is_empty() {
                    return Vec::new();
                }
                let raised = self.raised.entry(update.prefix).or_default();
                alarms
                    .into_iter()
                    .filter(|alarm| raised.insert((alarm.suspect, alarm.observed_at)))
                    .map(|alarm| StreamAlarm {
                        prefix: update.prefix,
                        triggered_by_seq: update.seq,
                        alarm,
                    })
                    .collect()
            }
        }
    }

    /// Streams a whole batch, returning all new alarms in order.
    pub fn process_all<'a, I>(&mut self, updates: I) -> Vec<StreamAlarm>
    where
        I: IntoIterator<Item = &'a UpdateRecord>,
    {
        updates.into_iter().flat_map(|u| self.process(u)).collect()
    }
}

/// The streaming detector without any of the incremental machinery, kept as
/// the oracle [`StreamingDetector`] is held to (as `BgpSimulation` is for
/// the routing engine): on every record both views are rebuilt from the
/// path maps, [`Detector::scan`] walks every observed AS and builds its own
/// index, and the raised keys sit in one global set that every withdrawal
/// filters. Same alarms, record by record; cost proportional to everything
/// it holds.
#[derive(Clone, Debug)]
pub struct ReferenceDetector<'g> {
    graph: &'g AsGraph,
    current: HashMap<Ipv4Prefix, HashMap<Asn, AsPath>>,
    previous: HashMap<Ipv4Prefix, HashMap<Asn, AsPath>>,
    raised: HashSet<(Ipv4Prefix, Asn, Asn)>,
}

impl<'g> ReferenceDetector<'g> {
    /// Creates an oracle over the relationship graph.
    #[must_use]
    pub fn new(graph: &'g AsGraph) -> Self {
        ReferenceDetector {
            graph,
            current: HashMap::new(),
            previous: HashMap::new(),
            raised: HashSet::new(),
        }
    }

    /// Installs a RIB-snapshot route, as [`StreamingDetector::seed`] does.
    pub fn seed(&mut self, monitor: Asn, prefix: Ipv4Prefix, path: AsPath) {
        self.current
            .entry(prefix)
            .or_default()
            .insert(monitor, path.clone());
        self.previous
            .entry(prefix)
            .or_default()
            .insert(monitor, path);
    }

    /// Applies one update and returns any *new* alarms it exposes.
    pub fn process(&mut self, update: &UpdateRecord) -> Vec<StreamAlarm> {
        let routes = self.current.entry(update.prefix).or_default();
        match &update.action {
            UpdateAction::Withdraw => {
                routes.remove(&update.monitor);
                self.previous
                    .entry(update.prefix)
                    .or_default()
                    .remove(&update.monitor);
                self.raised.retain(|&(prefix, _, observed_at)| {
                    !(prefix == update.prefix && observed_at == update.monitor)
                });
                return Vec::new();
            }
            UpdateAction::Announce(path) => {
                let old = routes.insert(update.monitor, path.clone());
                if let Some(old) = old {
                    self.previous
                        .entry(update.prefix)
                        .or_default()
                        .insert(update.monitor, old);
                }
            }
        }
        let before = RouteView::from_paths(
            self.previous
                .get(&update.prefix)
                .into_iter()
                .flat_map(|m| m.values().cloned()),
        );
        let after = RouteView::from_paths(
            self.current
                .get(&update.prefix)
                .into_iter()
                .flat_map(|m| m.values().cloned()),
        );
        let mut out = Vec::new();
        for alarm in Detector::new(self.graph).scan(&before, &after) {
            let key = (update.prefix, alarm.suspect, alarm.observed_at);
            if self.raised.insert(key) {
                out.push(StreamAlarm {
                    prefix: update.prefix,
                    triggered_by_seq: update.seq,
                    alarm,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_attack::fixtures::{figure3, figure3_topology};
    use aspp_routing::{AttackerModel, DestinationSpec, RoutingEngine};
    use aspp_topology::AsGraphBuilder;
    use std::collections::BTreeMap;

    fn detector(g: &AsGraph) -> StreamingDetector {
        StreamingDetector::shared(Arc::new(g.clone()))
    }

    fn update(seq: u64, monitor: Asn, prefix: Ipv4Prefix, path: &str) -> UpdateRecord {
        UpdateRecord {
            seq,
            monitor,
            prefix,
            action: UpdateAction::Announce(path.parse().unwrap()),
        }
    }

    #[test]
    fn detects_attack_in_simulated_stream() {
        use figure3::*;
        let g = figure3_topology();
        let engine = RoutingEngine::new(&g);
        let clean = engine.compute(&DestinationSpec::new(V).origin_padding(3));
        let attacked = engine.compute(
            &DestinationSpec::new(V)
                .origin_padding(3)
                .attacker(AttackerModel::new(M)),
        );
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let monitors = [B, D, E];

        let mut stream = detector(&g);
        for &m in &monitors {
            stream.seed(m, prefix, clean.clean_observed_path(m).unwrap());
        }
        assert_eq!(stream.tracked_prefixes(), 1);

        // Updates arrive in pollution order; only B's route changes.
        let mut alarms = Vec::new();
        let mut seq = 0;
        for &m in &monitors {
            if attacked.route_changed(m) {
                seq += 1;
                alarms.extend(stream.process(&UpdateRecord {
                    seq,
                    monitor: m,
                    prefix,
                    action: UpdateAction::Announce(attacked.observed_path(m).unwrap()),
                }));
            }
        }
        assert!(
            alarms.iter().any(|a| a.alarm.suspect == M),
            "stream alarms: {alarms:?}"
        );
    }

    #[test]
    fn duplicate_updates_do_not_re_alarm() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let g = g.finish();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        stream.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());

        let u = update(1, Asn(77), prefix, "77 66 10 1");
        let first = stream.process(&u);
        assert!(!first.is_empty());
        let again = stream.process(&update(2, Asn(77), prefix, "77 66 10 1"));
        assert!(again.is_empty(), "idempotent: {again:?}");
    }

    #[test]
    fn withdrawals_are_silent() {
        let g = AsGraph::default();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        stream.seed(Asn(7), prefix, "7 1 1".parse().unwrap());
        let alarms = stream.process(&UpdateRecord {
            seq: 1,
            monitor: Asn(7),
            prefix,
            action: UpdateAction::Withdraw,
        });
        assert!(alarms.is_empty());
        // Re-announcing after a withdrawal does not see stale history.
        let alarms = stream.process(&update(2, Asn(7), prefix, "7 1"));
        assert!(alarms.is_empty());
    }

    fn withdraw(seq: u64, monitor: Asn, prefix: Ipv4Prefix) -> UpdateRecord {
        UpdateRecord {
            seq,
            monitor,
            prefix,
            action: UpdateAction::Withdraw,
        }
    }

    /// Masking direction: an attack seen, withdrawn and repeated must alarm
    /// again — the withdrawal invalidated the first episode's state.
    #[test]
    fn withdrawal_rearms_alarms_for_repeat_attacks() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let g = g.finish();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        stream.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());

        // First attack episode: alarm raised.
        let first = stream.process(&update(1, Asn(77), prefix, "77 66 10 1"));
        assert!(first.iter().any(|a| a.alarm.suspect == Asn(66)));

        // The attacker backs off: withdrawal, then the clean route returns.
        assert!(stream.process(&withdraw(2, Asn(77), prefix)).is_empty());
        assert!(stream
            .process(&update(3, Asn(77), prefix, "77 66 10 1 1 1"))
            .is_empty());

        // Second, identical attack episode: must alarm again, not be
        // masked by the first episode's idempotence state.
        let second = stream.process(&update(4, Asn(77), prefix, "77 66 10 1"));
        assert!(
            second.iter().any(|a| a.alarm.suspect == Asn(66)),
            "repeat attack after withdrawal was masked: {second:?}"
        );
    }

    /// False-alarm direction: a withdraw-then-reannounce with a genuinely
    /// lower padding level is a fresh traffic-engineering decision, not a
    /// strip — pre-withdrawal history must not be compared against it.
    #[test]
    fn padding_change_across_withdrawal_is_silent() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(77)).unwrap();
        let g = g.finish();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        // The origin pads with lambda = 4 ...
        stream.seed(Asn(77), prefix, "77 10 1 1 1 1".parse().unwrap());
        // ... withdraws, and re-announces with lambda = 2.
        assert!(stream.process(&withdraw(1, Asn(77), prefix)).is_empty());
        let alarms = stream.process(&update(2, Asn(77), prefix, "77 10 1 1"));
        assert!(
            alarms.is_empty(),
            "legitimate post-withdrawal padding change false-alarmed: {alarms:?}"
        );
    }

    #[test]
    fn prefixes_are_independent() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let g = g.finish();
        let p1: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let p2: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let mut stream = detector(&g);
        stream.seed(Asn(77), p1, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), p1, "55 10 1 1 1".parse().unwrap());
        stream.seed(Asn(77), p2, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), p2, "55 10 1 1 1".parse().unwrap());
        // Attack visible only on p1.
        let alarms = stream.process(&update(1, Asn(77), p1, "77 66 10 1"));
        assert!(alarms.iter().all(|a| a.prefix == p1));
        assert_eq!(stream.tracked_prefixes(), 2);
    }

    /// A shard worker must be able to own its detector outright and move it
    /// across threads: the `Arc`-holding form is `Send + 'static`.
    #[test]
    fn shared_detector_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<StreamingDetector>();
    }

    #[test]
    fn legitimate_growth_is_silent() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(77)).unwrap();
        let g = g.finish();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        stream.seed(Asn(77), prefix, "77 10 1".parse().unwrap());
        // The origin adds padding — more pads, not fewer: no alarm.
        let alarms = stream.process(&update(1, Asn(77), prefix, "77 10 1 1 1"));
        assert!(alarms.is_empty());
    }

    /// Long-run leak regression: withdrawals must *remove* per-prefix
    /// entries, not leave empty maps behind, so a resident service's memory
    /// tracks live state rather than every prefix ever seen.
    #[test]
    fn withdraw_churn_keeps_state_bounded() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(7)).unwrap();
        let g = g.finish();
        let mut stream = detector(&g);
        let mut seq = 0;
        for round in 0..50u32 {
            for i in 0..100u32 {
                let prefix = Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24);
                seq += 1;
                stream.process(&update(
                    seq,
                    Asn(7),
                    prefix,
                    &format!("7 10 1 1 {}", (round % 3) + 1),
                ));
            }
            assert_eq!(stream.tracked_prefixes(), 100, "round {round}");
            for i in 0..100u32 {
                let prefix = Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24);
                seq += 1;
                stream.process(&withdraw(seq, Asn(7), prefix));
            }
            assert_eq!(
                stream.tracked_prefixes(),
                0,
                "withdrawals leaked state in round {round}"
            );
        }
    }

    /// Withdrawing one of two monitors must keep the prefix tracked.
    #[test]
    fn partial_withdrawal_keeps_prefix_live() {
        let g = AsGraph::default();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        stream.seed(Asn(7), prefix, "7 1 1".parse().unwrap());
        stream.seed(Asn(8), prefix, "8 1 1".parse().unwrap());
        stream.process(&withdraw(1, Asn(7), prefix));
        assert_eq!(stream.tracked_prefixes(), 1);
        assert_eq!(stream.monitors_of(prefix), 1);
        stream.process(&withdraw(2, Asn(8), prefix));
        assert_eq!(stream.tracked_prefixes(), 0);
        assert_eq!(stream.monitors_of(prefix), 0);
    }

    /// Export → import must hand the importer *exactly* the exporter's
    /// behavior: the tail of a split stream replays to the same alarms.
    #[test]
    fn export_import_roundtrip_preserves_tail_behavior() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let g = g.finish();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let stream_updates = [
            update(1, Asn(77), prefix, "77 66 10 1"),
            withdraw(2, Asn(77), prefix),
            update(3, Asn(77), prefix, "77 66 10 1 1 1"),
            update(4, Asn(77), prefix, "77 66 10 1"),
            update(5, Asn(55), prefix, "55 10 1"),
        ];

        for split in 0..=stream_updates.len() {
            let mut uninterrupted = detector(&g);
            uninterrupted.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
            uninterrupted.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());
            let full = uninterrupted.process_all(&stream_updates);

            let mut head = detector(&g);
            head.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
            head.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());
            let mut alarms = head.process_all(&stream_updates[..split]);
            let snapshot = head.export_state();
            drop(head);

            let mut resumed = detector(&g);
            resumed.import_state(&snapshot);
            assert_eq!(resumed.export_state(), snapshot, "re-export at {split}");
            alarms.extend(resumed.process_all(&stream_updates[split..]));
            assert_eq!(alarms, full, "split at {split}");
        }
    }

    fn attack_graph() -> AsGraph {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        g.finish()
    }

    /// The standing candidates, one list per AS in stored order.
    fn groups(st: &PrefixState) -> BTreeMap<Asn, Vec<Candidate>> {
        let mut groups = BTreeMap::<Asn, Vec<Candidate>>::new();
        for c in &st.candidates {
            groups.entry(c.d).or_default().push(c.clone());
        }
        groups
    }

    /// After any seed/announce/withdraw interleaving, the candidates kept in
    /// lockstep are the ones `candidate_pairs` finds when re-run over every
    /// observed AS: same groups, same order within a group.
    #[test]
    fn incremental_candidates_match_full_derivation() {
        let g = attack_graph();
        let mut stream = detector(&g);
        let monitors = [Asn(77), Asn(55), Asn(88)];
        let tails = ["66 10 1 1 1", "66 10 1 1", "66 10 1", "10 1 1 1", "10 1"];
        let prefixes: Vec<Ipv4Prefix> = (0..3u32)
            .map(|i| Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24))
            .collect();
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        let mut standing = 0usize;
        for seq in 0..3000u64 {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = rng >> 24;
            let monitor = monitors[(r % 3) as usize];
            let prefix = prefixes[((r >> 4) % 3) as usize];
            let path: AsPath = format!("{monitor} {}", tails[((r >> 8) % 5) as usize])
                .parse()
                .unwrap();
            match (r >> 12) % 8 {
                0 => drop(stream.process(&withdraw(seq, monitor, prefix))),
                1 => stream.seed(monitor, prefix, path),
                _ => drop(stream.process(&UpdateRecord {
                    seq,
                    monitor,
                    prefix,
                    action: UpdateAction::Announce(path),
                })),
            }
            for (prefix, st) in &stream.states {
                let mut rederived = st.clone();
                rederived.derive_candidates();
                assert_eq!(groups(st), groups(&rederived), "{prefix} after seq {seq}");
                standing += st.candidates.len();
            }
        }
        assert!(standing > 0, "churn never left a candidate standing");
    }

    /// A re-announcement that changes no view re-derives no group.
    #[test]
    fn duplicate_reannouncement_rederives_nothing() {
        let g = attack_graph();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        stream.seed(Asn(77), prefix, "77 66 10 1 1 1".parse().unwrap());
        stream.seed(Asn(55), prefix, "55 10 1 1 1".parse().unwrap());
        stream.process(&update(1, Asn(77), prefix, "77 66 10 1"));
        assert!(!stream.touched.is_empty(), "the attack moved both views");
        let before = groups(&stream.states[&prefix]);
        assert!(
            !before.is_empty(),
            "the shortened routes stand as candidates"
        );

        let again = stream.process(&update(2, Asn(55), prefix, "55 10 1 1 1"));
        assert!(again.is_empty());
        assert!(stream.touched.is_empty(), "{:?}", stream.touched);
        assert_eq!(groups(&stream.states[&prefix]), before);
    }

    /// A raised key observed at a *transit* AS is re-armed by no monitor's
    /// withdrawal, so it outlives the prefix's state: after every monitor
    /// withdrew and the same attack is announced again, the alarms seen at
    /// the monitor fire again and the one seen at the transit AS does not —
    /// exactly what the global-set oracle does.
    #[test]
    fn transit_keys_outlive_the_pruned_prefix_state() {
        let g = attack_graph();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let episode = |seq: u64| {
            [
                update(seq, Asn(55), prefix, "55 10 1 1 1"),
                update(seq + 1, Asn(77), prefix, "77 66 10 1 1 1"),
                update(seq + 2, Asn(77), prefix, "77 66 10 1"),
                withdraw(seq + 3, Asn(77), prefix),
                withdraw(seq + 4, Asn(55), prefix),
            ]
        };
        let mut stream = detector(&g);
        let mut oracle = ReferenceDetector::new(&g);
        let mut attacks = Vec::new();
        for u in episode(1).iter().chain(&episode(6)) {
            let got = stream.process(u);
            assert_eq!(got, oracle.process(u), "diverged at seq {}", u.seq);
            if !got.is_empty() {
                attacks.push(got);
            }
            if u.seq == 5 {
                assert_eq!(stream.tracked_prefixes(), 0, "state must be pruned");
            }
        }
        let [first, second] = &attacks[..] else {
            panic!("one alarming record per episode: {attacks:?}");
        };
        let at = |alarms: &[StreamAlarm], d| alarms.iter().any(|a| a.alarm.observed_at == Asn(d));
        assert!(at(first, 77) && at(first, 66), "{first:?}");
        assert!(at(second, 77) && !at(second, 66), "{second:?}");
    }

    /// An announcement judges only candidates whose key is not raised yet:
    /// a standing, raised candidate stays silent while a new key on the same
    /// prefix alarms, and once its observer withdraws (re-arming the key)
    /// and repeats the attack, it alarms again — record by record what the
    /// oracle, which judges everything, emits.
    #[test]
    fn settled_candidates_are_skipped_but_new_keys_and_rearmed_keys_alarm() {
        let mut g = attack_graph().to_builder();
        g.add_provider_customer(Asn(66), Asn(88)).unwrap();
        let g = g.finish();
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut stream = detector(&g);
        let mut oracle = ReferenceDetector::new(&g);
        for (monitor, path) in [
            (55, "55 10 1 1 1"),
            (77, "77 66 10 1 1 1"),
            (88, "88 66 10 1 1 1"),
        ] {
            stream.seed(Asn(monitor), prefix, path.parse().unwrap());
            oracle.seed(Asn(monitor), prefix, path.parse().unwrap());
        }
        let settled = (Asn(66), Asn(77));
        let mut replay = |u: UpdateRecord| {
            let got = stream.process(&u);
            assert_eq!(got, oracle.process(&u), "diverged at seq {}", u.seq);
            let keys: Vec<_> = got
                .iter()
                .map(|a| (a.alarm.suspect, a.alarm.observed_at))
                .collect();
            let raised = stream.raised.get(&prefix).cloned().unwrap_or_default();
            (keys, stream.states[&prefix].candidates.clone(), raised)
        };

        let (first, standing, raised) = replay(update(1, Asn(77), prefix, "77 66 10 1"));
        assert!(first.contains(&settled), "{first:?}");
        assert!(standing.iter().any(|c| c.key() == settled));
        assert!(raised.contains(&settled));

        // 88 is intercepted too: its key is news, 77's standing one is not.
        let (second, standing, _) = replay(update(2, Asn(88), prefix, "88 66 10 1"));
        assert!(second.contains(&(Asn(66), Asn(88))), "{second:?}");
        assert!(
            second
                .iter()
                .all(|&(_, observed_at)| observed_at != Asn(77)),
            "{second:?}"
        );
        assert!(
            standing.iter().any(|c| c.key() == settled),
            "the settled candidate still stands, unjudged"
        );

        // 77 withdraws (re-arming its keys) and the attack repeats.
        assert!(replay(withdraw(3, Asn(77), prefix)).0.is_empty());
        // The padded route back at 77 is a witness again: it convicts 88's
        // own announcement, a new key — but 77's is not raised by it.
        let (recovered, _, _) = replay(update(4, Asn(77), prefix, "77 66 10 1 1 1"));
        assert_eq!(recovered, [(Asn(88), Asn(88))]);
        let (again, _, _) = replay(update(5, Asn(77), prefix, "77 66 10 1"));
        assert!(again.contains(&settled), "{again:?}");
    }

    /// [`ReferenceDetector`] — views and index rebuilt from the path maps on
    /// every record, exactly the pre-incremental algorithm — must agree
    /// with the optimized hot path on a churny pseudo-random stream.
    #[test]
    fn reference_oracle_equivalence() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        g.add_provider_customer(Asn(66), Asn(88)).unwrap();
        g.add_peering(Asn(55), Asn(66)).unwrap();
        let g = g.finish();

        let mut optimized = detector(&g);
        let mut reference = ReferenceDetector::new(&g);

        let monitors = [Asn(77), Asn(55), Asn(88)];
        let tails = ["66 10 1 1 1", "66 10 1 1", "66 10 1", "10 1 1 1", "10 1"];
        let prefixes: Vec<Ipv4Prefix> = (0..4u32)
            .map(|i| Ipv4Prefix::containing(0x0a00_0000 | (i << 8), 24))
            .collect();

        // Deterministic xorshift churn over announce/withdraw/path choices.
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut total = 0usize;
        for seq in 0..4000u64 {
            let r = next();
            let monitor = monitors[(r % 3) as usize];
            let prefix = prefixes[((r >> 8) % 4) as usize];
            let u = if r % 7 == 0 {
                UpdateRecord {
                    seq,
                    monitor,
                    prefix,
                    action: UpdateAction::Withdraw,
                }
            } else {
                let tail = tails[((r >> 16) % 5) as usize];
                UpdateRecord {
                    seq,
                    monitor,
                    prefix,
                    action: UpdateAction::Announce(format!("{monitor} {tail}").parse().unwrap()),
                }
            };
            let got = optimized.process(&u);
            let want = reference.process(&u);
            assert_eq!(got, want, "diverged at seq {seq} on {u:?}");
            total += got.len();
        }
        assert!(total > 0, "churn stream never alarmed — test is vacuous");
    }
}
