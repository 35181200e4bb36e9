//! Mesh geometry: node coordinates, XY routing paths, link identifiers.

use serde::{Deserialize, Serialize};

/// A network endpoint (one per core tile; the directory slice and the L2 of
/// core *i* share tile *i*'s router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Position of a node in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coord {
    /// Column (0-based).
    pub x: usize,
    /// Row (0-based).
    pub y: usize,
}

/// Direction of a directed mesh link leaving a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// +x.
    East,
    /// −x.
    West,
    /// +y.
    South,
    /// −y.
    North,
}

impl Direction {
    const COUNT: usize = 4;

    fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::South => 2,
            Direction::North => 3,
        }
    }
}

/// Static configuration of the mesh (Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Columns.
    pub width: usize,
    /// Rows.
    pub height: usize,
    /// Cycles for a flit to traverse one link (Table 1: 4).
    pub link_latency: u64,
    /// Per-hop router pipeline delay.
    pub router_latency: u64,
    /// Flit size in bytes (Table 1: 4).
    pub flit_bytes: u32,
}

impl MeshConfig {
    /// The paper's network parameters for an `n`-core CMP, arranged in the
    /// most square mesh possible (2→2×1, 4→2×2, 8→4×2, 16→4×4).
    pub fn for_cores(n: usize) -> Self {
        assert!(n >= 1, "mesh needs at least one node");
        let mut width = (n as f64).sqrt().ceil() as usize;
        while !n.is_multiple_of(width) {
            width += 1;
        }
        MeshConfig {
            width,
            height: n / width,
            link_latency: 4,
            router_latency: 1,
            flit_bytes: 4,
        }
    }

    /// Total node count.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Coordinate of node `id` (row-major layout).
    #[inline]
    pub fn coord(&self, id: NodeId) -> Coord {
        assert!(
            id.0 < self.nodes(),
            "node {id:?} outside {}x{} mesh",
            self.width,
            self.height
        );
        Coord {
            x: id.0 % self.width,
            y: id.0 / self.width,
        }
    }

    /// Node at coordinate `c`.
    #[inline]
    pub fn node(&self, c: Coord) -> NodeId {
        NodeId(c.y * self.width + c.x)
    }

    /// Number of flits needed to carry `bytes` of payload (≥ 1).
    #[inline]
    pub fn flits(&self, bytes: u32) -> u32 {
        bytes.div_ceil(self.flit_bytes).max(1)
    }

    /// Directed-link identifier for the link leaving `from` in `dir`.
    /// Links are dense indices suitable for a flat reservation table.
    #[inline]
    pub fn link_id(&self, from: NodeId, dir: Direction) -> usize {
        from.0 * Direction::COUNT + dir.index()
    }

    /// Total number of directed-link slots (including nonexistent edge
    /// links, which are simply never used).
    #[inline]
    pub fn link_slots(&self) -> usize {
        self.nodes() * Direction::COUNT
    }

    /// The XY dimension-ordered route from `src` to `dst`, as an iterator
    /// over (router, direction) link traversals: every x step, then every
    /// y step. Empty when `src == dst`. The iterator is computed step by
    /// step and allocates nothing, so the mesh walks it once per message.
    pub fn route(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = (NodeId, Direction)> {
        let cfg = *self;
        let mut cur = self.coord(src);
        let goal = self.coord(dst);
        std::iter::from_fn(move || {
            let here = cfg.node(cur);
            let dir = if goal.x > cur.x {
                cur.x += 1;
                Direction::East
            } else if goal.x < cur.x {
                cur.x -= 1;
                Direction::West
            } else if goal.y > cur.y {
                cur.y += 1;
                Direction::South
            } else if goal.y < cur.y {
                cur.y -= 1;
                Direction::North
            } else {
                return None;
            };
            Some((here, dir))
        })
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let a = self.coord(src);
        let b = self.coord(dst);
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_cores_shapes() {
        assert_eq!(MeshConfig::for_cores(2).nodes(), 2);
        let m4 = MeshConfig::for_cores(4);
        assert_eq!((m4.width, m4.height), (2, 2));
        let m8 = MeshConfig::for_cores(8);
        assert_eq!(m8.nodes(), 8);
        let m16 = MeshConfig::for_cores(16);
        assert_eq!((m16.width, m16.height), (4, 4));
    }

    #[test]
    fn coord_node_roundtrip() {
        let m = MeshConfig::for_cores(16);
        for i in 0..16 {
            let id = NodeId(i);
            assert_eq!(m.node(m.coord(id)), id);
        }
    }

    #[test]
    fn xy_route_is_x_then_y() {
        let m = MeshConfig::for_cores(16); // 4x4
                                           // node 1 = (1,0), node 14 = (2,3)
        let path: Vec<_> = m.route(NodeId(1), NodeId(14)).collect();
        assert_eq!(path.len(), m.hops(NodeId(1), NodeId(14)));
        assert_eq!(path[0], (NodeId(1), Direction::East));
        assert!(matches!(path[1], (_, Direction::South)));
    }

    #[test]
    fn route_to_self_is_empty() {
        let m = MeshConfig::for_cores(4);
        assert!(m.route(NodeId(3), NodeId(3)).collect::<Vec<_>>().is_empty());
        assert_eq!(m.hops(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn flit_count_rounds_up() {
        let m = MeshConfig::for_cores(4);
        assert_eq!(m.flits(1), 1);
        assert_eq!(m.flits(4), 1);
        assert_eq!(m.flits(5), 2);
        assert_eq!(m.flits(72), 18);
        assert_eq!(m.flits(0), 1);
    }

    #[test]
    fn link_ids_are_unique() {
        let m = MeshConfig::for_cores(16);
        let mut seen = std::collections::HashSet::new();
        for n in 0..m.nodes() {
            for dir in [
                Direction::East,
                Direction::West,
                Direction::South,
                Direction::North,
            ] {
                assert!(seen.insert(m.link_id(NodeId(n), dir)));
            }
        }
        assert!(seen.len() <= m.link_slots());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn route_length_equals_manhattan_distance(
            n in 1usize..=32,
            a in 0usize..32,
            b in 0usize..32,
        ) {
            let m = MeshConfig::for_cores(n);
            let src = NodeId(a % m.nodes());
            let dst = NodeId(b % m.nodes());
            prop_assert_eq!(m.route(src, dst).collect::<Vec<_>>().len(), m.hops(src, dst));
        }

        /// Dimension order: the route is a (possibly empty) run of
        /// east-or-west steps followed by a (possibly empty) run of
        /// north-or-south steps — never interleaved, and never mixing
        /// the two senses within a phase (no doubling back). This is
        /// the property that makes XY routing deadlock-free.
        #[test]
        fn route_is_x_phase_then_y_phase(
            n in 1usize..=32,
            a in 0usize..32,
            b in 0usize..32,
        ) {
            let m = MeshConfig::for_cores(n);
            let src = NodeId(a % m.nodes());
            let dst = NodeId(b % m.nodes());
            let path: Vec<_> = m.route(src, dst).collect();
            let is_x = |d: Direction| matches!(d, Direction::East | Direction::West);
            let x_steps: Vec<Direction> =
                path.iter().map(|&(_, d)| d).take_while(|&d| is_x(d)).collect();
            let y_steps: Vec<Direction> =
                path.iter().map(|&(_, d)| d).skip(x_steps.len()).collect();
            prop_assert!(
                y_steps.iter().all(|&d| !is_x(d)),
                "x-step after the y-phase began: {path:?}"
            );
            prop_assert!(x_steps.windows(2).all(|w| w[0] == w[1]), "x-phase doubles back");
            prop_assert!(y_steps.windows(2).all(|w| w[0] == w[1]), "y-phase doubles back");
            let (sc, dc) = (m.coord(src), m.coord(dst));
            prop_assert_eq!(x_steps.len(), sc.x.abs_diff(dc.x));
            prop_assert_eq!(y_steps.len(), sc.y.abs_diff(dc.y));
        }

        #[test]
        fn route_walks_adjacent_nodes(n in 2usize..=25, a in 0usize..25, b in 0usize..25) {
            let m = MeshConfig::for_cores(n);
            let src = NodeId(a % m.nodes());
            let dst = NodeId(b % m.nodes());
            let mut cur = src;
            for (router, dir) in m.route(src, dst) {
                prop_assert_eq!(router, cur);
                let c = m.coord(cur);
                let next = match dir {
                    Direction::East => Coord { x: c.x + 1, y: c.y },
                    Direction::West => Coord { x: c.x - 1, y: c.y },
                    Direction::South => Coord { x: c.x, y: c.y + 1 },
                    Direction::North => Coord { x: c.x, y: c.y - 1 },
                };
                cur = m.node(next);
            }
            prop_assert_eq!(cur, dst);
        }
    }
}
