//! The Generalized Network Creation Game on weighted host networks
//! (Section 5 of the paper) and the Theorem 2.2 hardness reduction.
//!
//! * [`host`] — complete weighted host networks: builders (from a weight
//!   matrix, random metric, random non-metric), metric closure,
//!   metricity checks,
//! * [`hm_filter`] — the `H_M` long-edge filter that turns an arbitrary
//!   host into a metric one (Section 5.1),
//! * [`corollaries`] — Corollary 5.1 (shortest-path subnetwork is an
//!   (α+1, α/2+1)-NE), Corollary 5.2 (host MST is (n−1, n−1)),
//!   Corollary 5.3 (Algorithm 1 on `H_M`),
//! * [`hitting_set`] — the Theorem 2.2 reduction from HITTING SET plus
//!   an exact hitting-set solver and the empirical verification used by
//!   the harness,
//! * [`poa`] — Theorem 5.4 machinery: equilibrium discovery on hosts and
//!   the `2(α+1)` PoA bound check.

pub mod corollaries;
pub mod hitting_set;
pub mod hm_filter;
pub mod host;
pub mod poa;

pub use host::HostNetwork;
