//! MIS verifiers used by every test and experiment in the workspace.

use crate::state::MisState;
use graphgen::{Adjacency, Graph, NodeId};

/// Whether `set` (membership by node) is independent in `g`.
pub fn is_independent(g: &Graph, set: &[bool]) -> bool {
    g.edges().all(|(u, v)| !(set[u as usize] && set[v as usize]))
}

/// Whether `set` is maximal: every node is in the set or adjacent to it.
pub fn is_maximal(g: &Graph, set: &[bool]) -> bool {
    (0..g.n() as NodeId).all(|v| {
        set[v as usize] || g.neighbors(v).iter().any(|&u| set[u as usize])
    })
}

/// Whether `set` is a maximal independent set of `g`.
pub fn is_mis(g: &Graph, set: &[bool]) -> bool {
    is_independent(g, set) && is_maximal(g, set)
}

/// Whether `set` equals the LFMIS of `g` with respect to `order`.
pub fn is_lfmis(g: &Graph, order: &[NodeId], set: &[bool]) -> bool {
    crate::greedy::lfmis(g, order) == set
}

/// Converts distributed outputs into a membership vector.
///
/// # Errors
///
/// Returns the id of the first node still undecided.
pub fn states_to_set(states: &[MisState]) -> Result<Vec<bool>, NodeId> {
    states
        .iter()
        .enumerate()
        .map(|(v, s)| match s {
            MisState::InMis => Ok(true),
            MisState::NotInMis => Ok(false),
            MisState::Undecided => Err(v as NodeId),
        })
        .collect()
}

/// Domination loop shared by [`check_maximal`] and [`check_mis`].
fn maximality_of_set(g: &Graph, set: &[bool]) -> Result<(), String> {
    for v in 0..g.n() as NodeId {
        if !set[v as usize] && !g.neighbors(v).iter().any(|&u| set[u as usize]) {
            return Err(format!("node {v} is neither in the set nor dominated"));
        }
    }
    Ok(())
}

/// Detailed maximality check, reporting the first non-dominated node.
///
/// # Errors
///
/// Describes an undecided node or a node that is neither in the set nor
/// adjacent to a set member.
pub fn check_maximal(g: &Graph, states: &[MisState]) -> Result<(), String> {
    let set = states_to_set(states).map_err(|v| format!("node {v} is undecided"))?;
    maximality_of_set(g, &set)
}

/// Detailed MIS check, reporting the first violation found.
///
/// # Errors
///
/// Describes an undecided node, an intra-set edge, or a non-dominated
/// node.
pub fn check_mis(g: &Graph, states: &[MisState]) -> Result<(), String> {
    let set = states_to_set(states).map_err(|v| format!("node {v} is undecided"))?;
    for (u, v) in g.edges() {
        if set[u as usize] && set[v as usize] {
            return Err(format!("nodes {u} and {v} are adjacent and both in the set"));
        }
    }
    maximality_of_set(g, &set)
}

/// Survivor-aware MIS check for runs under a crash fault model: verifies
/// that the alive nodes' states form an MIS **of the subgraph induced by
/// `alive`**. Crashed nodes (`alive[v] == false`) are exempt from every
/// requirement — their states, including `Undecided`, are ignored; edges
/// into them neither violate independence nor provide domination.
///
/// With an all-true `alive` mask this coincides exactly with
/// [`check_mis`], so fault-free verification is unchanged.
///
/// # Errors
///
/// Describes the first violation among survivors: an undecided alive
/// node, an alive-alive intra-set edge, or an alive node that is neither
/// in the set nor adjacent to an alive set member.
///
/// # Panics
///
/// Panics if `alive.len()` differs from `states.len()` or `g.n()`.
pub fn check_mis_survivors<G: Adjacency>(
    g: &G,
    states: &[MisState],
    alive: &[bool],
) -> Result<(), String> {
    assert_eq!(alive.len(), states.len(), "alive mask / states length mismatch");
    assert_eq!(alive.len(), g.n(), "alive mask / graph size mismatch");
    let mut set = vec![false; states.len()];
    for (v, s) in states.iter().enumerate() {
        if !alive[v] {
            continue;
        }
        match s {
            MisState::InMis => set[v] = true,
            MisState::NotInMis => {}
            MisState::Undecided => return Err(format!("node {v} is undecided")),
        }
    }
    // In-set edges `(u, v)`, `u < v`, in `Graph::edges` order, as
    // `check_mis` scans them, so both report the same first violation.
    for u in (0..g.n() as NodeId).filter(|&u| set[u as usize]) {
        if let Some(&v) = g.neighbors(u).iter().find(|&&v| u < v && set[v as usize]) {
            return Err(format!("nodes {u} and {v} are adjacent and both in the set"));
        }
    }
    for v in 0..g.n() as NodeId {
        if alive[v as usize]
            && !set[v as usize]
            && !g.neighbors(v).iter().any(|&u| alive[u as usize] && set[u as usize])
        {
            return Err(format!("node {v} is neither in the set nor dominated"));
        }
    }
    Ok(())
}

/// Local survivor-aware MIS check: the conditions of
/// [`check_mis_survivors`], tested only at `nodes`, each against its
/// full neighborhood. Costs the summed degree of `nodes`, not `O(n + m)`;
/// listing every node gives exactly the global verdict.
///
/// A violation is always seen at some node it involves, so this decides
/// the global question whenever every violation must involve a listed
/// node — the case for incremental repair, which lists every node whose
/// state or adjacency a batch changed
/// ([`incremental`](crate::incremental)).
///
/// # Errors
///
/// Describes the first violation at a listed alive node: it is
/// undecided, it and an alive neighbor are both in the set, or it is
/// neither in the set nor adjacent to an alive set member.
pub fn check_mis_at<G: Adjacency>(
    g: &G,
    states: &[MisState],
    alive: &[bool],
    nodes: &[NodeId],
) -> Result<(), String> {
    let in_set = |u: NodeId| alive[u as usize] && states[u as usize] == MisState::InMis;
    for &v in nodes {
        if !alive[v as usize] {
            continue;
        }
        match states[v as usize] {
            MisState::Undecided => return Err(format!("node {v} is undecided")),
            MisState::InMis => {
                if let Some(&u) = g.neighbors(v).iter().find(|&&u| in_set(u)) {
                    let (a, b) = (u.min(v), u.max(v));
                    return Err(format!("nodes {a} and {b} are adjacent and both in the set"));
                }
            }
            MisState::NotInMis => {
                if !g.neighbors(v).iter().any(|&u| in_set(u)) {
                    return Err(format!("node {v} is neither in the set nor dominated"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    #[test]
    fn path_checks() {
        let g = generators::path(4);
        assert!(is_mis(&g, &[true, false, true, false]));
        assert!(is_mis(&g, &[false, true, false, true]));
        assert!(!is_independent(&g, &[true, true, false, false]));
        assert!(!is_maximal(&g, &[true, false, false, false]));
        assert!(!is_mis(&g, &[false, false, false, false]));
    }

    #[test]
    fn lfmis_check() {
        let g = generators::path(3);
        assert!(is_lfmis(&g, &[0, 1, 2], &[true, false, true]));
        assert!(!is_lfmis(&g, &[1, 0, 2], &[true, false, true]));
    }

    #[test]
    fn state_conversion_and_check() {
        use MisState::*;
        let g = generators::path(3);
        assert!(check_mis(&g, &[InMis, NotInMis, InMis]).is_ok());
        assert!(check_mis(&g, &[InMis, Undecided, InMis]).unwrap_err().contains("undecided"));
        assert!(check_mis(&g, &[InMis, InMis, NotInMis]).unwrap_err().contains("adjacent"));
        assert!(check_mis(&g, &[NotInMis, NotInMis, InMis]).unwrap_err().contains("dominated"));
        assert_eq!(states_to_set(&[InMis, NotInMis]), Ok(vec![true, false]));
        assert_eq!(states_to_set(&[InMis, Undecided]), Err(1));
    }

    #[test]
    fn survivor_check_coincides_with_check_mis_when_all_alive() {
        use MisState::*;
        let g = generators::path(4);
        let all = vec![true; 4];
        for states in [
            vec![InMis, NotInMis, InMis, NotInMis],
            vec![InMis, InMis, NotInMis, InMis],
            vec![NotInMis, NotInMis, InMis, NotInMis],
            vec![InMis, Undecided, InMis, NotInMis],
        ] {
            assert_eq!(
                check_mis(&g, &states).is_ok(),
                check_mis_survivors(&g, &states, &all).is_ok(),
                "divergence on {states:?}"
            );
        }
    }

    #[test]
    fn survivor_check_exempts_crashed_nodes() {
        use MisState::*;
        let g = generators::path(4);
        // Node 1 crashed undecided: survivors 0, 2, 3 must form an MIS
        // of the induced subgraph {0} ∪ {2-3}.
        let states = [InMis, Undecided, InMis, NotInMis];
        let alive = [true, false, true, true];
        check_mis_survivors(&g, &states, &alive).unwrap();
        // A crashed InMis neighbor does not violate independence...
        let states = [InMis, InMis, InMis, NotInMis];
        let alive = [true, false, true, true];
        check_mis_survivors(&g, &states, &alive).unwrap();
        // ...and does not dominate: node 0 relying on crashed node 1's
        // membership is a real coverage hole among survivors.
        let states = [NotInMis, InMis, InMis, NotInMis];
        let alive = [true, false, true, true];
        let err = check_mis_survivors(&g, &states, &alive).unwrap_err();
        assert!(err.contains("dominated"), "unexpected error: {err}");
        // Alive-alive violations are still caught.
        let states = [InMis, NotInMis, InMis, InMis];
        let alive = [true, false, true, true];
        let err = check_mis_survivors(&g, &states, &alive).unwrap_err();
        assert!(err.contains("adjacent"), "unexpected error: {err}");
        // An undecided survivor is still an error.
        let states = [InMis, NotInMis, Undecided, InMis];
        let alive = [true, false, true, true];
        let err = check_mis_survivors(&g, &states, &alive).unwrap_err();
        assert!(err.contains("undecided"), "unexpected error: {err}");
    }

    #[test]
    fn local_check_over_every_node_is_the_global_check() {
        use MisState::*;
        let g = generators::path(4);
        let every: Vec<NodeId> = (0..4).collect();
        for alive in [[true; 4], [true, false, true, true]] {
            for states in [
                [InMis, NotInMis, InMis, NotInMis],
                [InMis, InMis, NotInMis, InMis],
                [NotInMis, NotInMis, InMis, NotInMis],
                [InMis, Undecided, InMis, NotInMis],
                [NotInMis, InMis, InMis, NotInMis],
            ] {
                assert_eq!(
                    check_mis_at(&g, &states, &alive, &every).is_ok(),
                    check_mis_survivors(&g, &states, &alive).is_ok(),
                    "divergence on {states:?} alive {alive:?}"
                );
            }
        }
    }

    #[test]
    fn local_check_sees_only_the_listed_nodes() {
        use MisState::*;
        let g = generators::path(4);
        let alive = [true; 4];
        // Node 3 is undominated; nodes 0 and 1 are fine.
        let states = [InMis, NotInMis, NotInMis, NotInMis];
        check_mis_at(&g, &states, &alive, &[0, 1]).unwrap();
        let err = check_mis_at(&g, &states, &alive, &[0, 3]).unwrap_err();
        assert!(err.contains("node 3") && err.contains("dominated"), "{err}");
        // An intra-set edge is seen from either endpoint.
        let states = [NotInMis, InMis, InMis, NotInMis];
        for v in [1, 2] {
            let err = check_mis_at(&g, &states, &alive, &[v]).unwrap_err();
            assert!(err.contains("nodes 1 and 2"), "{err}");
        }
        assert!(check_mis_at(&g, &states, &alive, &[]).is_ok());
    }

    #[test]
    fn maximality_check() {
        use MisState::*;
        let g = generators::path(3);
        assert!(check_maximal(&g, &[InMis, NotInMis, InMis]).is_ok());
        // Maximal but not independent: check_maximal alone accepts it.
        assert!(check_maximal(&g, &[InMis, InMis, InMis]).is_ok());
        assert!(check_maximal(&g, &[NotInMis, NotInMis, InMis])
            .unwrap_err()
            .contains("dominated"));
        assert!(check_maximal(&g, &[InMis, Undecided, InMis]).unwrap_err().contains("undecided"));
    }
}
