//! Offline stand-in for `serde`.
//!
//! This workspace builds with no crates.io access, so the real `serde`
//! cannot be fetched.  The shim is a real JSON layer: [`json`] provides a
//! document model, parser, renderer, and the [`json::ToJson`]/
//! [`json::FromJson`] traits, which `#[derive(ToJson)]`/
//! `#[derive(FromJson)]` implement for named-field structs and
//! unit/named-field enums.  This is what the scenario API's
//! machine-readable run reports serialise through.

#![forbid(unsafe_code)]

pub mod json;

pub use serde_derive::{FromJson, ToJson};
