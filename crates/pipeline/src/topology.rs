//! The heterogeneous test-bed model.
//!
//! Darwin's defining property is architecture diversity: x86 from two
//! vendors, POWER, ARM, and GPU nodes, racked together. Physical placement
//! matters for the §4.5.2 positional analysis (shared edge switch, shared
//! rack micro-climate) and architecture matters for §4.5.3 (comparing a
//! node to same-architecture peers).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Compute-node architecture families on the test-bed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Architecture {
    /// Intel Xeon x86-64.
    X86Intel,
    /// AMD EPYC x86-64.
    X86Amd,
    /// ARM (Ampere/ThunderX-class).
    Aarch64,
    /// IBM POWER9.
    Ppc64le,
    /// GPU nodes (x86 host + NVIDIA accelerators).
    GpuA100,
}

impl Architecture {
    /// All architectures.
    pub const ALL: [Architecture; 5] = [
        Architecture::X86Intel,
        Architecture::X86Amd,
        Architecture::Aarch64,
        Architecture::Ppc64le,
        Architecture::GpuA100,
    ];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::X86Intel => "x86-intel",
            Architecture::X86Amd => "x86-amd",
            Architecture::Aarch64 => "aarch64",
            Architecture::Ppc64le => "ppc64le",
            Architecture::GpuA100 => "gpu-a100",
        }
    }
}

/// One compute node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Hostname (`cn0001`…).
    pub name: String,
    /// Rack id (`r01`…).
    pub rack: String,
    /// Architecture family.
    pub arch: Architecture,
}

/// The cluster's physical and architectural layout.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterTopology {
    nodes: BTreeMap<String, NodeInfo>,
}

impl ClusterTopology {
    /// An empty topology.
    pub fn new() -> ClusterTopology {
        ClusterTopology::default()
    }

    /// A Darwin-like layout: `racks` racks of `nodes_per_rack` nodes, with
    /// architectures assigned in contiguous blocks (test-beds rack like
    /// hardware together). Node names are `cn0001`… matching `datagen`.
    pub fn darwin_like(racks: usize, nodes_per_rack: usize) -> ClusterTopology {
        let mut topo = ClusterTopology::new();
        let total = racks * nodes_per_rack;
        for i in 0..total {
            let arch = Architecture::ALL[(i * Architecture::ALL.len()) / total.max(1)];
            topo.add(NodeInfo {
                name: format!("cn{:04}", i + 1),
                rack: format!("r{:02}", i / nodes_per_rack + 1),
                arch,
            });
        }
        topo
    }

    /// Register a node (replaces an existing entry of the same name).
    pub fn add(&mut self, node: NodeInfo) {
        self.nodes.insert(node.name.clone(), node);
    }

    /// Look up a node.
    pub fn node(&self, name: &str) -> Option<&NodeInfo> {
        self.nodes.get(name)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in name order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.values()
    }

    /// Nodes of `arch`.
    pub fn arch_peers(&self, arch: Architecture) -> Vec<&NodeInfo> {
        self.nodes.values().filter(|n| n.arch == arch).collect()
    }

    /// Distinct rack ids in order.
    pub fn racks(&self) -> Vec<String> {
        let mut racks: Vec<String> = self.nodes.values().map(|n| n.rack.clone()).collect();
        racks.sort_unstable();
        racks.dedup();
        racks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn darwin_like_layout() {
        let topo = ClusterTopology::darwin_like(4, 10);
        assert_eq!(topo.len(), 40);
        assert_eq!(topo.racks().len(), 4);
        assert_eq!(topo.nodes.values().filter(|n| n.rack == "r01").count(), 10);
        // All five architectures present.
        for arch in Architecture::ALL {
            assert!(!topo.arch_peers(arch).is_empty(), "{arch:?} missing");
        }
        // Node lookup works and is consistent.
        let n = topo.node("cn0001").unwrap();
        assert_eq!(n.rack, "r01");
    }

    #[test]
    fn arch_blocks_are_contiguous() {
        let topo = ClusterTopology::darwin_like(5, 10);
        let archs: Vec<Architecture> = topo.nodes().map(|n| n.arch).collect();
        // Architectures must be non-decreasing through node order.
        for w in archs.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn unknown_node_is_none() {
        let topo = ClusterTopology::darwin_like(1, 2);
        assert!(topo.node("nope").is_none());
    }

    #[test]
    fn add_replaces() {
        let mut topo = ClusterTopology::new();
        topo.add(NodeInfo {
            name: "a".into(),
            rack: "r1".into(),
            arch: Architecture::X86Amd,
        });
        topo.add(NodeInfo {
            name: "a".into(),
            rack: "r2".into(),
            arch: Architecture::X86Amd,
        });
        assert_eq!(topo.len(), 1);
        assert_eq!(topo.node("a").unwrap().rack, "r2");
    }
}
