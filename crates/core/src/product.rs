//! Client-side product structure: what a PDM user actually sees after an
//! expand — the reassembled object tree (§1: structure information is
//! "retrieved, interpreted, and reassembled" from the flat tables).
//!
//! A tree keeps the server's rows. A node that arrived as a row of a
//! retrieval's result is held as its id, its parent and the row's position
//! in that shared result; its [`ProductNode`] — attribute map, `type` and
//! `name` copies — is built the first time [`ProductTree::node`] or
//! [`ProductTree::nodes`] reads it. Structure, ids and types are read from
//! the row without building one.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

use pdm_sql::{ResultSet, Row, Value};

use crate::client::{NodeRows, NodeShape};

/// Object identifier (the `obid` of the flattened schema).
pub type ObjectId = i64;

/// One node of the reassembled product structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductNode {
    pub obid: ObjectId,
    /// Parent object, `None` for the root.
    pub parent: Option<ObjectId>,
    /// Type discriminator from the homogenized result ("assy" / "comp").
    pub type_name: String,
    pub name: String,
    /// All attributes of the transferred row, for rule evaluation and
    /// display.
    pub attrs: HashMap<String, Value>,
}

impl ProductNode {
    pub fn is_assembly(&self) -> bool {
        self.type_name == "assy"
    }

    pub fn is_component(&self) -> bool {
        self.type_name == "comp"
    }
}

/// A reassembled product tree.
///
/// `Debug` prints every node built, whether it was read before or not.
#[derive(Clone, Default)]
pub struct ProductTree {
    root: Option<ObjectId>,
    nodes: BTreeMap<ObjectId, Slot>,
    children: HashMap<ObjectId, Vec<ObjectId>>,
    /// The results nodes were inserted from as rows, one per retrieval.
    batches: Vec<Batch>,
}

/// One retrieval's shared result and the shape that reads its rows.
#[derive(Clone)]
struct Batch {
    rows: Arc<ResultSet>,
    shape: Arc<NodeShape>,
}

/// One node of a tree: built when inserted built, else when first read.
#[derive(Clone)]
struct Slot {
    parent: Option<ObjectId>,
    /// The batch and position of the row the node is read from; `None`
    /// for a node inserted built.
    row: Option<(usize, usize)>,
    node: OnceLock<ProductNode>,
}

impl ProductTree {
    pub fn new() -> Self {
        ProductTree::default()
    }

    /// Insert a node; the first node without a parent (or the first node
    /// overall) becomes the root.
    pub fn insert(&mut self, node: ProductNode) {
        let (obid, parent) = (node.obid, node.parent);
        self.place(
            obid,
            Slot {
                parent,
                row: None,
                node: OnceLock::from(node),
            },
        );
    }

    /// Insert every node `rows` reads, in order, each kept as its row.
    pub(crate) fn insert_rows(&mut self, rows: &NodeRows) {
        for (at, _) in rows.kept_rows() {
            self.insert_row(rows.rows(), rows.shape(), at, rows.parent());
        }
    }

    /// Insert the node row `at` of `rows` describes, read through `shape`
    /// (which must fit the rows' schema), under `parent` when given and
    /// else under the row's `parent` column — the node
    /// [`NodeShape::node`] builds from it, kept as the row. Returns its id,
    /// or `None` when `rows` has no row `at`.
    pub(crate) fn insert_row(
        &mut self,
        rows: &Arc<ResultSet>,
        shape: &Arc<NodeShape>,
        at: usize,
        parent: Option<ObjectId>,
    ) -> Option<ObjectId> {
        let row = rows.rows.get(at)?;
        let obid = shape.obid(row).unwrap_or_default();
        let parent = parent.or_else(|| shape.parent(row));
        let same = |b: &Batch| Arc::ptr_eq(&b.rows, rows) && Arc::ptr_eq(&b.shape, shape);
        if !self.batches.last().is_some_and(same) {
            self.batches.push(Batch {
                rows: Arc::clone(rows),
                shape: Arc::clone(shape),
            });
        }
        let batch = self.batches.len() - 1;
        self.place(
            obid,
            Slot {
                parent,
                row: Some((batch, at)),
                node: OnceLock::new(),
            },
        );
        Some(obid)
    }

    fn place(&mut self, obid: ObjectId, slot: Slot) {
        if let Some(p) = slot.parent {
            self.children.entry(p).or_default().push(obid);
        }
        if self.root.is_none() && slot.parent.is_none() {
            self.root = Some(obid);
        }
        self.nodes.insert(obid, slot);
    }

    /// The row a slot's node is read from, and the shape that reads it.
    fn row(&self, slot: &Slot) -> Option<(&NodeShape, &Row)> {
        let (batch, at) = slot.row?;
        let batch = self.batches.get(batch)?;
        Some((&batch.shape, batch.rows.rows.get(at)?))
    }

    /// A slot's node, built on its first read.
    fn built<'a>(&'a self, slot: &'a Slot) -> &'a ProductNode {
        slot.node.get_or_init(|| {
            let (shape, row) = self
                .row(slot)
                .expect("a node not inserted built is a row of a kept batch");
            shape.node(row, slot.parent)
        })
    }

    /// A slot's type discriminator, read without building its node.
    fn type_of<'a>(&'a self, slot: &'a Slot) -> &'a str {
        match self.row(slot) {
            Some((shape, row)) => shape.type_name(row),
            None => slot.node.get().map_or("", |n| n.type_name.as_str()),
        }
    }

    pub fn root(&self) -> Option<ObjectId> {
        self.root
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn contains(&self, obid: ObjectId) -> bool {
        self.nodes.contains_key(&obid)
    }

    /// The node `obid`, built on its first read.
    pub fn node(&self, obid: ObjectId) -> Option<&ProductNode> {
        self.nodes.get(&obid).map(|slot| self.built(slot))
    }

    pub fn children(&self, obid: ObjectId) -> &[ObjectId] {
        self.children.get(&obid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All node ids in ascending obid order.
    pub fn node_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.nodes.keys().copied()
    }

    /// All nodes in ascending obid order, each built on its first read.
    pub fn nodes(&self) -> impl Iterator<Item = &ProductNode> {
        self.nodes.values().map(|slot| self.built(slot))
    }

    /// Every node's id and type discriminator, in ascending obid order,
    /// read without building a node.
    pub fn ids_and_types(&self) -> impl Iterator<Item = (ObjectId, &str)> {
        self.nodes
            .iter()
            .map(|(&obid, slot)| (obid, self.type_of(slot)))
    }

    /// Number of nodes with the given type discriminator.
    pub fn count_of_type(&self, type_name: &str) -> usize {
        self.ids_and_types()
            .filter(|&(_, t)| t == type_name)
            .count()
    }

    /// Depth of the tree below the root (root alone = 0). Nodes whose
    /// parents were not transferred are treated as depth-unknown and
    /// skipped.
    pub fn depth(&self) -> u32 {
        let Some(root) = self.root else { return 0 };
        let mut max = 0;
        let mut stack = vec![(root, 0u32)];
        while let Some((id, d)) = stack.pop() {
            max = max.max(d);
            for &c in self.children(id) {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// Nodes reachable from the root (sanity check: equals `len()` when the
    /// transfer was complete and consistent).
    pub fn reachable_from_root(&self) -> usize {
        let Some(root) = self.root else { return 0 };
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(self.children(id).iter().copied());
            }
        }
        seen.len()
    }
}

impl fmt::Debug for ProductTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Nodes<'a>(&'a ProductTree);
        impl fmt::Debug for Nodes<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let tree = self.0;
                f.debug_map()
                    .entries(tree.nodes.iter().map(|(id, slot)| (id, tree.built(slot))))
                    .finish()
            }
        }
        f.debug_struct("ProductTree")
            .field("root", &self.root)
            .field("nodes", &Nodes(self))
            .field("children", &self.children)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(obid: ObjectId, parent: Option<ObjectId>, ty: &str) -> ProductNode {
        ProductNode {
            obid,
            parent,
            type_name: ty.to_string(),
            name: format!("N{obid}"),
            attrs: HashMap::new(),
        }
    }

    fn sample() -> ProductTree {
        // 1 -> {2, 3}, 2 -> {4 (comp)}
        let mut t = ProductTree::new();
        t.insert(node(1, None, "assy"));
        t.insert(node(2, Some(1), "assy"));
        t.insert(node(3, Some(1), "assy"));
        t.insert(node(4, Some(2), "comp"));
        t
    }

    #[test]
    fn root_detection_and_children() {
        let t = sample();
        assert_eq!(t.root(), Some(1));
        assert_eq!(t.children(1), &[2, 3]);
        assert_eq!(t.children(2), &[4]);
        assert!(t.children(4).is_empty());
    }

    #[test]
    fn counts_and_depth() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.count_of_type("assy"), 3);
        assert_eq!(t.count_of_type("comp"), 1);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.reachable_from_root(), 4);
    }

    #[test]
    fn node_kind_helpers() {
        let t = sample();
        assert!(t.node(1).unwrap().is_assembly());
        assert!(t.node(4).unwrap().is_component());
    }

    #[test]
    fn orphaned_subtree_not_reachable() {
        let mut t = sample();
        t.insert(node(10, Some(99), "comp")); // parent never transferred
        assert_eq!(t.len(), 5);
        assert_eq!(t.reachable_from_root(), 4);
    }

    #[test]
    fn empty_tree() {
        let t = ProductTree::new();
        assert!(t.is_empty());
        assert_eq!(t.root(), None);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.reachable_from_root(), 0);
    }
}
