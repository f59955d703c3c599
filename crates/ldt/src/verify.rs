//! Structural validation of constructed labeled distance trees.

use crate::construct::LdtOutput;
use graphgen::{Adjacency, Graph};

/// Checks that per-node construction outputs form a valid **forest of
/// labeled distance trees** over the participating subgraph:
///
/// * every participant finished with `ok == true`;
/// * parent/child pointers are reciprocal along real graph edges between
///   participants;
/// * a child's depth is its parent's depth plus one;
/// * each connected component (of the participating subgraph) has exactly
///   one root and a single shared `root_id`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn verify_fldt(
    graph: &Graph,
    outputs: &[LdtOutput],
    participants: &[bool],
) -> Result<(), String> {
    let n = graph.n();
    if outputs.len() != n || participants.len() != n {
        return Err(format!(
            "length mismatch: graph {n}, outputs {}, participants {}",
            outputs.len(),
            participants.len()
        ));
    }
    for v in 0..n {
        if !participants[v] {
            continue;
        }
        let out = &outputs[v];
        if !out.ok {
            return Err(format!("node {v} did not finish construction (ok = false)"));
        }
        let t = &out.tree;
        if let Some(p) = t.parent_port {
            let (u, q) = graph.endpoint(v as u32, p);
            if !participants[u as usize] {
                return Err(format!("node {v}'s parent via port {p} is not a participant"));
            }
            let pt = &outputs[u as usize].tree;
            if !pt.children_ports.contains(&q) {
                return Err(format!("node {v}'s parent {u} does not list it as a child"));
            }
            if pt.depth + 1 != t.depth {
                return Err(format!(
                    "depth mismatch: node {v} depth {} but parent {u} depth {}",
                    t.depth, pt.depth
                ));
            }
            if pt.root_id != t.root_id {
                return Err(format!("root-id mismatch between node {v} and its parent {u}"));
            }
        } else if t.depth != 0 {
            return Err(format!("node {v} has no parent but depth {}", t.depth));
        }
        for &c in &t.children_ports {
            let (u, q) = graph.endpoint(v as u32, c);
            if !participants[u as usize] {
                return Err(format!("node {v}'s child via port {c} is not a participant"));
            }
            if outputs[u as usize].tree.parent_port != Some(q) {
                return Err(format!("node {v} lists {u} as child but {u} disagrees"));
            }
        }
    }
    // Exactly one root and one shared root id per participating component.
    let keep: Vec<u32> =
        (0..n as u32).filter(|&v| participants[v as usize]).collect();
    let (sub, map) = graph.induced(&keep);
    let (labels, count) = graphgen::props::connected_components(&sub);
    let mut root_of = vec![None::<u32>; count];
    let mut id_of = vec![None::<u64>; count];
    for (i, &orig) in map.iter().enumerate() {
        let comp = labels[i] as usize;
        let t = &outputs[orig as usize].tree;
        match id_of[comp] {
            None => id_of[comp] = Some(t.root_id),
            Some(id) if id != t.root_id => {
                return Err(format!(
                    "component {comp} has two root ids: {id} and {}",
                    t.root_id
                ))
            }
            _ => {}
        }
        if t.is_root() {
            if let Some(prev) = root_of[comp] {
                return Err(format!("component {comp} has two roots: {prev} and {orig}"));
            }
            root_of[comp] = Some(orig);
        }
    }
    for (comp, root) in root_of.iter().enumerate() {
        if root.is_none() {
            return Err(format!("component {comp} has no root"));
        }
    }
    Ok(())
}
