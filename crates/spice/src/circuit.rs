//! Circuit representation: typed nodes (natures), devices, and the
//! unknown-vector layout shared by every analysis.
//!
//! Unknown ordering: all non-ground nodes first (in creation order),
//! then each device's internal unknowns (branch currents, HDL
//! `UNKNOWN` objects) in device order.
//!
//! Node names live in a [`NodeTable`] behind an `Arc`, so every
//! circuit built from one elaborated deck shares one table: a build
//! creates no node and resolves no name. [`Circuit::node`] still
//! grows a hand-built circuit's table, copying it first if it is
//! shared. Device names are not indexed: [`Circuit::device_index`]
//! scans, and duplicate names are refused where names enter from
//! outside the program, when a deck is elaborated.

use crate::device::Device;
use crate::error::{Result, SpiceError};
use mems_hdl::Nature;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a circuit node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The global reference node (shared by every nature).
    pub const GROUND: NodeId = NodeId(0);

    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// What kind of scalar an unknown represents — used for per-kind
/// convergence tolerances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownKind {
    /// Across value of a node of the given nature.
    NodeAcross(Nature),
    /// A device-internal unknown (branch current/force, HDL unknown).
    Internal,
}

/// Node names, natures and the name → id index of a circuit. Ids
/// number nodes in creation order; id 0 is ground, named `0` and
/// also found as `gnd`. Each name is one allocation, shared by the
/// list and the index.
#[derive(Debug, Clone)]
pub struct NodeTable {
    names: Vec<Arc<str>>,
    natures: Vec<Nature>,
    index: HashMap<Arc<str>, NodeId>,
}

impl Default for NodeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeTable {
    /// A table holding only ground.
    pub fn new() -> Self {
        let ground: Arc<str> = Arc::from("0");
        let mut index = HashMap::new();
        index.insert(Arc::clone(&ground), NodeId::GROUND);
        index.insert(Arc::from("gnd"), NodeId::GROUND);
        NodeTable {
            names: vec![ground],
            natures: vec![Nature::Electrical],
            index,
        }
    }

    /// Creates (or returns) a named node of the given nature. A name
    /// passed as `Arc<str>` is stored without a copy.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Build`] when the name exists with a
    /// different nature.
    pub fn node(
        &mut self,
        name: impl AsRef<str> + Into<Arc<str>>,
        nature: Nature,
    ) -> Result<NodeId> {
        if let Some(id) = self.existing(name.as_ref(), nature)? {
            return Ok(id);
        }
        let id = NodeId(self.names.len());
        let name = name.into();
        self.index.insert(Arc::clone(&name), id);
        self.names.push(name);
        self.natures.push(nature);
        Ok(id)
    }

    /// The id of `name` when it exists and `nature` agrees with it
    /// (ground agrees with every nature).
    fn existing(&self, name: &str, nature: Nature) -> Result<Option<NodeId>> {
        match self.index.get(name) {
            Some(&id) if !id.is_ground() && self.natures[id.0] != nature => {
                Err(SpiceError::Build(format!(
                    "node `{name}` already exists with nature {}",
                    self.natures[id.0]
                )))
            }
            found => Ok(found.copied()),
        }
    }

    /// Looks up a node by name.
    pub(crate) fn find(&self, name: &str) -> Option<NodeId> {
        self.index.get(name).copied()
    }

    /// Node name.
    pub(crate) fn name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Node nature (ground reports electrical).
    pub(crate) fn nature(&self, id: NodeId) -> Nature {
        self.natures[id.0]
    }

    /// Number of nodes including ground.
    pub(crate) fn n_nodes(&self) -> usize {
        self.names.len()
    }
}

/// A circuit: nodes plus devices.
pub struct Circuit {
    nodes: Arc<NodeTable>,
    devices: Vec<Box<dyn Device>>,
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("nodes", &self.nodes.names)
            .field("devices", &self.devices.len())
            .finish()
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit with a ground node named `0`.
    pub fn new() -> Self {
        Self::with_nodes(Arc::new(NodeTable::new()), 0)
    }

    /// An empty circuit over a shared node table, with room for
    /// `devices` devices.
    pub fn with_nodes(nodes: Arc<NodeTable>, devices: usize) -> Self {
        Circuit {
            nodes,
            devices: Vec::with_capacity(devices),
        }
    }

    /// The ground node.
    pub fn ground(&self) -> NodeId {
        NodeId::GROUND
    }

    /// Creates (or returns) a named node of the given nature. A new
    /// node copies a shared table first.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Build`] when the name exists with a
    /// different nature.
    pub fn node(&mut self, name: &str, nature: Nature) -> Result<NodeId> {
        if let Some(id) = self.nodes.existing(name, nature)? {
            return Ok(id);
        }
        Arc::make_mut(&mut self.nodes).node(name, nature)
    }

    /// Shorthand for an electrical node.
    pub fn enode(&mut self, name: &str) -> Result<NodeId> {
        self.node(name, Nature::Electrical)
    }

    /// Shorthand for a translational mechanical node.
    pub fn mnode(&mut self, name: &str) -> Result<NodeId> {
        self.node(name, Nature::MechanicalTranslation)
    }

    /// Looks up a node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.find(name)
    }

    /// Node name.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.nodes.name(id)
    }

    /// Node nature (ground reports electrical).
    pub fn node_nature(&self, id: NodeId) -> Nature {
        self.nodes.nature(id)
    }

    /// Number of nodes including ground.
    pub fn n_nodes(&self) -> usize {
        self.nodes.n_nodes()
    }

    /// Adds a device.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Build`] for pins referencing nodes this
    /// circuit does not have.
    pub fn add(&mut self, device: impl Device + 'static) -> Result<()> {
        self.add_boxed(Box::new(device))
    }

    /// Adds an already-boxed device.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::add`].
    pub fn add_boxed(&mut self, device: Box<dyn Device>) -> Result<()> {
        for pin in device.pins() {
            if pin.0 >= self.nodes.n_nodes() {
                return Err(SpiceError::Build(format!(
                    "device `{}` references unknown node id {}",
                    device.name(),
                    pin.0
                )));
            }
        }
        self.devices.push(device);
        Ok(())
    }

    /// Immutable device list.
    pub fn devices(&self) -> &[Box<dyn Device>] {
        &self.devices
    }

    /// Mutable device list (used by the analyses).
    pub fn devices_mut(&mut self) -> &mut [Box<dyn Device>] {
        &mut self.devices
    }

    /// Finds the index of the first device named `name`, by a scan.
    pub fn device_index(&self, name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d.name() == name)
    }

    /// Computes the unknown layout, assigning internal-unknown bases
    /// to devices. Called by every analysis before solving.
    pub fn layout(&mut self) -> UnknownLayout {
        let n_nodes = self.nodes.n_nodes();
        let mut kinds: Vec<UnknownKind> = Vec::with_capacity(n_nodes);
        for i in 1..n_nodes {
            kinds.push(UnknownKind::NodeAcross(self.nodes.natures[i]));
        }
        let mut labels: Vec<String> = (1..n_nodes)
            .map(|i| format!("v({})", self.nodes.names[i]))
            .collect();
        let mut next = n_nodes - 1;
        for dev in &mut self.devices {
            let n = dev.n_internal();
            if n > 0 {
                dev.set_internal_base(next);
                for k in 0..n {
                    labels.push(format!("i({},{k})", dev.name()));
                    kinds.push(UnknownKind::Internal);
                }
                next += n;
            }
        }
        UnknownLayout {
            n_nodes,
            n_unknowns: next,
            kinds,
            labels,
        }
    }
}

/// The unknown-vector layout of a circuit.
#[derive(Debug, Clone)]
pub struct UnknownLayout {
    /// Total node count including ground.
    pub n_nodes: usize,
    /// Total unknown count (nodes − 1 + internals).
    pub n_unknowns: usize,
    /// Kind of each unknown (tolerance selection).
    pub kinds: Vec<UnknownKind>,
    /// Human-readable label per unknown (`v(name)` / `i(dev,k)`).
    pub labels: Vec<String>,
}

impl UnknownLayout {
    /// Unknown index of a node (`None` for ground).
    pub fn node_unknown(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.0 - 1)
        }
    }

    /// Node across value from a solution vector (0 for ground).
    pub fn node_value(&self, x: &[f64], n: NodeId) -> f64 {
        match self.node_unknown(n) {
            Some(i) => x[i],
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::passive::Resistor;

    #[test]
    fn circuits_and_workspaces_cross_threads() {
        // The batch engine and the `mems serve` artifact cache both
        // hand built circuits (and their cached symbolic
        // factorizations) to worker threads. Keep that a compile-time
        // guarantee, not an accident of today's field types.
        fn assert_send<T: Send>() {}
        assert_send::<Circuit>();
        assert_send::<crate::solver::Workspace>();
        assert_send::<Box<dyn crate::device::Device>>();
    }

    #[test]
    fn nodes_are_interned_by_name() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let a2 = c.enode("a").unwrap();
        assert_eq!(a, a2);
        assert_eq!(c.n_nodes(), 2);
        assert_eq!(c.node_name(a), "a");
        assert!(c.find_node("gnd").unwrap().is_ground());
    }

    #[test]
    fn nature_conflicts_are_rejected() {
        let mut c = Circuit::new();
        c.enode("x").unwrap();
        assert!(c.mnode("x").is_err());
    }

    #[test]
    fn layout_assigns_unknowns() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.mnode("b").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1e3)).unwrap();
        let layout = c.layout();
        assert_eq!(layout.n_unknowns, 2);
        assert_eq!(layout.node_unknown(a), Some(0));
        assert_eq!(layout.node_unknown(b), Some(1));
        assert_eq!(layout.node_unknown(g), None);
        assert_eq!(layout.kinds[0], UnknownKind::NodeAcross(Nature::Electrical));
        assert_eq!(
            layout.kinds[1],
            UnknownKind::NodeAcross(Nature::MechanicalTranslation)
        );
        assert_eq!(layout.labels[0], "v(a)");
        assert_eq!(layout.node_value(&[3.0, 4.0], a), 3.0);
        assert_eq!(layout.node_value(&[3.0, 4.0], g), 0.0);
    }

    #[test]
    fn device_index_scans_names() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1.0)).unwrap();
        c.add(Resistor::new("r2", a, g, 2.0)).unwrap();
        assert_eq!(c.device_index("r2"), Some(1));
        assert!(c.device_index("zz").is_none());
    }

    #[test]
    fn shared_node_tables_copy_on_write() {
        let mut table = NodeTable::new();
        let a = table.node("a", Nature::Electrical).unwrap();
        let table = Arc::new(table);
        let mut c1 = Circuit::with_nodes(Arc::clone(&table), 0);
        let c2 = Circuit::with_nodes(Arc::clone(&table), 0);
        // Finding an existing node leaves the table shared.
        assert_eq!(c1.enode("a").unwrap(), a);
        assert!(Arc::ptr_eq(&c1.nodes, &table));
        assert!(c1.mnode("a").is_err());
        // A new node copies it: the other circuit does not see it.
        let b = c1.mnode("b").unwrap();
        assert!(!Arc::ptr_eq(&c1.nodes, &table));
        assert_eq!(c1.node_nature(b), Nature::MechanicalTranslation);
        assert_eq!(c2.n_nodes(), 2);
        assert!(c2.find_node("b").is_none());
        let mut d = Circuit::with_nodes(table, 0);
        assert!(d.add(Resistor::new("r1", b, a, 1.0)).is_err());
    }
}
