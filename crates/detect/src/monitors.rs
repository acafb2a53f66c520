//! Vantage-point (monitor) selection strategies.
//!
//! The paper ranks "all ASes based on their degrees" and selects "the top d
//! monitors" for its Figure 13/14 evaluation, noting that monitor placement
//! is the detector's main practical limitation.

use aspp_topology::AsGraph;
use aspp_types::Asn;
use rand::seq::SliceRandom;
use rand::Rng;

/// The top-`d` ASes by degree (ties broken by ascending ASN) — the paper's
/// selection policy.
///
/// # Example
///
/// ```
/// use aspp_detect::monitors::top_degree;
/// use aspp_topology::gen::InternetConfig;
///
/// let g = InternetConfig::small().seed(5).build();
/// let mons = top_degree(&g, 10);
/// assert_eq!(mons.len(), 10);
/// // The best-connected ASes come first.
/// assert!(g.degree(mons[0]) >= g.degree(mons[9]));
/// ```
#[must_use]
pub fn top_degree(graph: &AsGraph, d: usize) -> Vec<Asn> {
    let mut ranked = graph.asns_by_degree();
    ranked.truncate(d);
    ranked
}

/// `d` monitors sampled uniformly at random — a baseline the paper contrasts
/// implicitly ("the more diverse they are located, the higher is the
/// accuracy").
#[must_use]
pub fn random_monitors<R: Rng>(graph: &AsGraph, d: usize, rng: &mut R) -> Vec<Asn> {
    let mut all: Vec<Asn> = graph.asns().collect();
    all.shuffle(rng);
    all.truncate(d);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_topology::gen::InternetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top_degree_is_sorted_and_sized() {
        let g = InternetConfig::small().seed(8).build();
        let mons = top_degree(&g, 25);
        assert_eq!(mons.len(), 25);
        for w in mons.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
        // Requesting more monitors than ASes caps at the population.
        assert_eq!(top_degree(&g, 10_000).len(), g.len());
    }

    #[test]
    fn tier1_cores_lead_the_ranking() {
        let g = InternetConfig::small().seed(9).build();
        let mons = top_degree(&g, 9);
        // The most connected ASes are the tier-1 core (ASN < 2000) plus the
        // richly-peered content networks (>= 90000, the Akamai analogues).
        for m in &mons {
            assert!(
                m.value() < 2_000 || m.value() >= 90_000,
                "expected core or content AS, got {m}"
            );
        }
        // And at least one genuine tier-1 makes the cut.
        assert!(mons.iter().any(|m| m.value() < 2_000));
    }

    #[test]
    fn random_monitors_deterministic_per_seed() {
        let g = InternetConfig::small().seed(10).build();
        let a = random_monitors(&g, 15, &mut StdRng::seed_from_u64(1));
        let b = random_monitors(&g, 15, &mut StdRng::seed_from_u64(1));
        let c = random_monitors(&g, 15, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 15);
    }
}
