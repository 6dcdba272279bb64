//! # cvr-content
//!
//! Tile-based panoramic content substrate for the collaborative VR
//! reproduction: the 4-way tile split of the equirectangular frame (Fig. 5),
//! the 5 cm grid world, packed video IDs, the convex CRF size model
//! standing in for the paper's 171 GB encoded database (Fig. 1a), and the
//! client buffer and delivery ledger behind the repetitive-tile protocol.
//!
//! ```
//! use cvr_content::library::ContentLibrary;
//! use cvr_core::quality::QualityLevel;
//! use cvr_core::rate::RateFunction;
//! use cvr_motion::pose::{Orientation, Pose, Vec3};
//!
//! let library = ContentLibrary::paper_default();
//! let pose = Pose::new(Vec3::new(1.0, 1.7, 0.5), Orientation::new(90.0, 0.0, 0.0));
//! let request = library.request_for(&pose);
//! assert!(!request.tiles.is_empty());
//! assert!(request.rate_table.rate(QualityLevel::new(4)) > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod grid;
pub mod hash;
pub mod id;
pub mod library;
pub mod plane;
pub mod sizing;
pub mod tile;

pub use cache::{ClientTileBuffer, DeliveryLedger, UndeliveredSums};
pub use grid::{CellId, GridWorld};
pub use hash::CellHashBuilder;
pub use id::VideoId;
pub use library::{ContentLibrary, ContentRequest};
pub use plane::{OrientationKey, RatePlane, SharedFovCache};
pub use sizing::TileSizeModel;
pub use tile::{tile_mask, tiles_for_pose, tiles_for_pose_into, tiles_in, TileId};
