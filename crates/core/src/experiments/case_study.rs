//! The Facebook routing anomaly (paper Section III, Figure 1, Table I).
//!
//! Reproduces the March 22nd 2011 incident end-to-end: Facebook announces
//! `69.171.224.0/20` with five copies of AS32934; Korea Telecom strips two
//! of them; the 5-hop detour through China Telecom displaces AT&T's and
//! NTT's 7-hop direct routes, and the data-plane RTT from a US AT&T
//! customer jumps past 200 ms.

use aspp_attack::fixtures::{facebook_anomaly_spec, facebook_topology};
use aspp_attack::HijackImpact;
use aspp_dataplane::{simulate_traceroute, Region, RegionMap, Traceroute};
use aspp_routing::RoutingEngine;
use aspp_types::{well_known, AsPath, Ipv4Prefix};

use crate::report::{pct, TextTable};

/// The reproduced case study.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    /// The hijacked prefix (one of the two affected Facebook prefixes).
    pub prefix: Ipv4Prefix,
    /// AT&T's normal route: `7018 3356 32934 ×5`.
    pub normal_path_att: AsPath,
    /// AT&T's route during the anomaly: `7018 4134 9318 32934 ×3`.
    pub anomalous_path_att: AsPath,
    /// NTT's route during the anomaly: `2914 4134 9318 32934 ×3`.
    pub anomalous_path_ntt: AsPath,
    /// China Telecom's route: `4134 9318 32934 ×3`.
    pub anomalous_path_ct: AsPath,
    /// Traceroute over the normal path (all-US).
    pub normal_trace: Traceroute,
    /// Traceroute over the detour (Table I's shape).
    pub anomalous_trace: Traceroute,
    /// Control-plane impact of the interception.
    pub impact: HijackImpact,
}

/// Runs the case study. `seed` only affects traceroute jitter.
#[must_use]
pub fn run(seed: u64) -> CaseStudy {
    use well_known::*;
    let graph = facebook_topology();
    let outcome = RoutingEngine::new(&graph).compute(&facebook_anomaly_spec());

    let regions = {
        let mut map = RegionMap::new(Region::UsEast);
        map.assign(ATT, Region::UsEast)
            .assign(NTT, Region::UsEast)
            .assign(LEVEL3, Region::UsEast)
            .assign(CHINA_TELECOM, Region::China)
            .assign(KOREA_TELECOM, Region::Korea)
            .assign(FACEBOOK, Region::UsWest);
        map
    };

    let normal_path_att = outcome
        .clean_observed_path(ATT)
        .expect("AT&T reaches Facebook");
    let anomalous_path_att = outcome.observed_path(ATT).expect("attacked route");

    CaseStudy {
        prefix: "69.171.224.0/20".parse().expect("valid prefix literal"),
        normal_trace: simulate_traceroute(&normal_path_att, &regions, seed),
        anomalous_trace: simulate_traceroute(&anomalous_path_att, &regions, seed),
        normal_path_att,
        anomalous_path_att,
        anomalous_path_ntt: outcome.observed_path(NTT).expect("NTT route"),
        anomalous_path_ct: outcome.observed_path(CHINA_TELECOM).expect("CT route"),
        impact: HijackImpact::of(&outcome),
    }
}

impl CaseStudy {
    /// Renders the Figure 1 route table and the Table I traceroute.
    #[must_use]
    pub fn render(&self) -> String {
        let mut routes = TextTable::new(["observer", "route (Figure 1)", "state"]);
        routes.row([
            "AT&T".to_owned(),
            self.normal_path_att.to_string(),
            "before".to_owned(),
        ]);
        routes.row([
            "AT&T".to_owned(),
            self.anomalous_path_att.to_string(),
            "anomaly".to_owned(),
        ]);
        routes.row([
            "NTT".to_owned(),
            self.anomalous_path_ntt.to_string(),
            "anomaly".to_owned(),
        ]);
        routes.row([
            "ChinaTel".to_owned(),
            self.anomalous_path_ct.to_string(),
            "anomaly".to_owned(),
        ]);
        format!(
            "# Facebook anomaly case study — prefix {}\n\n{routes}\n\
             pollution: before {}% -> after {}%\n\n\
             # Table I — traceroute during the anomaly\n{}\n\
             (normal route RTT: {:.0} ms; anomalous: {:.0} ms)\n",
            self.prefix,
            pct(self.impact.before_fraction),
            pct(self.impact.after_fraction),
            self.anomalous_trace,
            self.normal_trace.final_rtt_ms(),
            self.anomalous_trace.final_rtt_ms(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_match_the_paper_exactly() {
        let study = run(3);
        assert_eq!(
            study.normal_path_att.to_string(),
            "7018 3356 32934 32934 32934 32934 32934",
            "the 7-hop normal route with 5 origin copies"
        );
        assert_eq!(
            study.anomalous_path_att.to_string(),
            "7018 4134 9318 32934 32934 32934",
            "the 6-hop anomalous route with 3 origin copies"
        );
        assert_eq!(
            study.anomalous_path_ntt.to_string(),
            "2914 4134 9318 32934 32934 32934"
        );
        assert_eq!(
            study.anomalous_path_ct.to_string(),
            "4134 9318 32934 32934 32934"
        );
    }

    #[test]
    fn anomalous_route_is_shorter_but_physically_longer() {
        let study = run(4);
        assert!(study.anomalous_path_att.len() < study.normal_path_att.len());
        assert!(study.anomalous_path_att.unique_len() > study.normal_path_att.unique_len());
    }

    #[test]
    fn table1_delay_shape() {
        let study = run(5);
        // Cross-ocean detour at least doubles the RTT, and lands >150 ms.
        assert!(study.anomalous_trace.final_rtt_ms() > 2.0 * study.normal_trace.final_rtt_ms());
        assert!(study.anomalous_trace.final_rtt_ms() > 150.0);
        // Hops traverse AT&T -> China Telecom -> Korea -> Facebook in order.
        let seq = study.anomalous_trace.as_sequence();
        assert_eq!(
            seq,
            vec![
                well_known::ATT,
                well_known::CHINA_TELECOM,
                well_known::KOREA_TELECOM,
                well_known::FACEBOOK
            ]
        );
    }

    #[test]
    fn render_contains_key_artifacts() {
        let study = run(6);
        let text = study.render();
        assert!(text.contains("69.171.224.0/20"));
        assert!(text.contains("7018 4134 9318"));
        assert!(text.contains("Table I"));
        assert!(text.contains("AS4134"));
    }
}
