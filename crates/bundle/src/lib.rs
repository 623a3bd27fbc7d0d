//! `Bundle`: the typed key-value container Android uses for instance
//! state.
//!
//! RCHDroid's view-tree migration (§3.3 of the paper) works by explicitly
//! calling `onSaveInstanceState` on the shadow-state activity, which
//! recursively saves every view's state into a [`Bundle`], and then
//! initialising the sunny-state activity from that bundle. This crate
//! provides that container and its byte-accurate parcel size
//! ([`Bundle::parcel_size`]), which the memory model counts as the
//! saved-state footprint.
//!
//! # Examples
//!
//! ```
//! use droidsim_bundle::Bundle;
//!
//! let mut state = Bundle::new();
//! state.put_string("user_name", "alice");
//! state.put_i64("timer_start_ms", 123_456);
//! assert_eq!(state.string("user_name"), Some("alice"));
//! assert!(state.parcel_size() > 0);
//! ```

pub mod bundle;

pub use bundle::{Bundle, Value};
