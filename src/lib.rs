//! Facade crate for the *Efficiency and Stability in Euclidean Network
//! Design* reproduction (SPAA 2021).
//!
//! Re-exports the public API of every workspace crate under one roof:
//!
//! ```
//! use euclidean_network_design::prelude::*;
//!
//! let points = generators::uniform_unit_square(40, 7);
//! let network = build_beta_beta_network(&points, 2.0);
//! let report = certify(&points, &network, 2.0, &SolverConfig::default());
//! assert!(report.beta_upper.is_finite());
//! ```

pub use gncg_algo as algo;
pub use gncg_game as game;
pub use gncg_geometry as geometry;
pub use gncg_graph as graph;
pub use gncg_host as host;
pub use gncg_parallel as parallel;
pub use gncg_spanner as spanner;

/// One-stop import for examples and downstream users.
pub mod prelude {
    pub use gncg_algo::{build_beta_beta_network, AlgorithmOneParams, AlgorithmOneResult};
    pub use gncg_game::certify::{certify, CertifyReport};
    pub use gncg_game::network::OwnedNetwork;
    pub use gncg_game::{Outcome, SolverConfig};
    pub use gncg_geometry::generators;
    pub use gncg_geometry::{Norm, Point, PointSet};
}
