//! Connectivity queries.

use crate::Graph;

/// Component label per vertex and the number of components of the
/// subgraph of `g` that keeps the edges `{a, b}` with `keep(a, b)`
/// (asked from both ends; pass `|_, _| true` for `g` itself). Labels
/// are `0..k` in order of each component's smallest vertex.
pub fn components(g: &Graph, keep: impl Fn(usize, usize) -> bool) -> (Vec<usize>, usize) {
    let n = g.len();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = next;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &(v, _) in g.neighbors(u) {
                if label[v] == usize::MAX && keep(u, v) {
                    label[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

/// True iff the graph is connected.
pub fn is_connected(g: &Graph) -> bool {
    components(g, |_, _| true).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_is_connected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        assert!(is_connected(&g));
        assert_eq!(components(&g, |_, _| true).1, 1);
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let (label, k) = components(&g, |_, _| true);
        assert_eq!(k, 3); // {0,1}, {2,3}, {4}
        assert_eq!(label[0], label[1]);
        assert_eq!(label[2], label[3]);
        assert_ne!(label[0], label[2]);
        assert_ne!(label[0], label[4]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn kept_edges_only() {
        // dropping {1, 2} splits the path; labels follow smallest vertices
        let g = Graph::from_edges(4, &[(0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)]);
        let cut = |a: usize, b: usize| (a.min(b), a.max(b)) != (1, 2);
        assert_eq!(components(&g, cut), (vec![0, 1, 0, 1], 2));
    }

    #[test]
    fn singleton_graph_connected() {
        assert!(is_connected(&Graph::new(1)));
    }

    #[test]
    fn empty_edges_many_components() {
        let (_, k) = components(&Graph::new(7), |_, _| true);
        assert_eq!(k, 7);
    }
}
