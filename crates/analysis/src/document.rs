//! The one writer of every `BENCH_*.json` document.
//!
//! Each artifact kind — [`crate::GridResult`], [`crate::SweepResult`],
//! [`crate::FaultResult`] and [`crate::ChurnResult`] — implements
//! [`Document`]: its schema id, committed file name and cell key
//! fields as constants, beside its spec echo, its cell and point lines
//! and its timing columns. [`Document::payload_json`] and
//! [`Document::to_json`] frame them the same way for every kind:
//!
//! ```text
//! {
//!   "schema": "<SCHEMA>",
//!   "meta": {"threads": 2, "wall_ms": 812},         to_json only
//!   "timing": {"elapsed_ns": [...], ...},           to_json only
//!   "spec": {...},
//!   "cells": [
//!     <cell line>,
//!     ...
//!   ],
//!   "points": [
//!     <point line>,
//!     ...
//!   ]
//! }
//! ```
//!
//! The payload is the document without its `meta` and `timing` lines,
//! so the payload is byte-identical across machines and thread counts
//! while the full document still carries the wall clock.

use crate::grid::GridMeta;
use crate::stats::Summary;
use std::fmt::Display;

/// A benchmark result that serializes to one committed `BENCH_*.json`
/// document. Implementors supply the kind's constants and its lines;
/// the envelope is written once, by the provided methods.
pub trait Document {
    /// The schema id on the document's first line.
    const SCHEMA: &'static str;
    /// The committed artifact's file name at the repository root.
    const FILE: &'static str;
    /// The payload fields that identify one cell, in key order: what
    /// the readers group `points` by (sweep cells, which hold their
    /// points as entries, are keyed by these on `cells`).
    const KEY_FIELDS: &'static [&'static str];

    /// The spec echo: the body of the `spec` object, without braces.
    fn spec_json(&self) -> String;

    /// One JSON object per cell, in payload order.
    fn cell_lines(&self) -> Vec<String>;

    /// One JSON object per point, in payload order.
    fn point_lines(&self) -> Vec<String>;

    /// The named wall-clock columns of the `timing` line, one value per
    /// point.
    fn timing(&self) -> Vec<(&'static str, Vec<u64>)>;

    /// The deterministic payload: schema id, spec echo, cells, points.
    /// Byte-identical across thread counts and repeat runs.
    fn payload_json(&self) -> String {
        write(self, None)
    }

    /// The full document: the payload plus the `meta` and `timing`
    /// lines, both excluded from determinism comparisons.
    fn to_json(&self, meta: &GridMeta) -> String {
        write(self, Some(meta))
    }
}

/// The envelope around `doc`'s lines, with `meta` and `timing` lines
/// when `meta` is given.
fn write<D: Document + ?Sized>(doc: &D, meta: Option<&GridMeta>) -> String {
    let mut out = format!("{{\n  \"schema\": \"{}\",\n", D::SCHEMA);
    if let Some(m) = meta {
        out.push_str(&format!(
            "  \"meta\": {{\"threads\": {}, \"wall_ms\": {}}},\n",
            m.threads, m.wall_ms
        ));
        let columns: Vec<String> =
            doc.timing().iter().map(|(name, ns)| format!("\"{name}\": [{}]", list(ns))).collect();
        out.push_str(&format!("  \"timing\": {{{}}},\n", columns.join(", ")));
    }
    out.push_str(&format!("  \"spec\": {{{}}},\n", doc.spec_json()));
    out.push_str("  \"cells\": [\n");
    out.push_str(&indented(doc.cell_lines()));
    out.push_str("\n  ],\n  \"points\": [\n");
    out.push_str(&indented(doc.point_lines()));
    out.push_str("\n  ]\n}\n");
    out
}

/// `lines` indented by four spaces, one per line.
fn indented(lines: Vec<String>) -> String {
    lines.iter().map(|l| format!("    {l}")).collect::<Vec<_>>().join(",\n")
}

/// `items` joined by `", "`.
pub(crate) fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    items.into_iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
}

/// `items` as JSON strings joined by `", "`.
pub(crate) fn quoted<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    list(items.into_iter().map(|s| format!("\"{}\"", json_escape(s.as_ref()))))
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"mean\":{},\"std\":{},\"min\":{},\"median\":{},\"max\":{}}}",
        s.mean, s.std, s.min, s.median, s.max
    )
}
