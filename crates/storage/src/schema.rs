//! Schema model: per-column visibility and the tree-structured database of
//! paper §3.
//!
//! §2.1: "Specifying which data is Visible and which is Hidden occurs at the
//! schema definition stage. All data is by default Visible. In the create
//! table statement, either entire tables or entire columns may be declared
//! Hidden." The declaration vertically partitions each table: visible
//! columns (plus the replicated id) go to the Untrusted PC, hidden columns
//! (plus the id) to the token.
//!
//! §3: schemas are trees — a **root table** `T0` (the largest, central
//! table) holds foreign keys to its children, which hold foreign keys to
//! their children, etc. `ancestors` and `descendants` drive SKT layout and
//! climbing-index levels.

use crate::error::StorageError;
use crate::value::ColumnType;
use crate::Result;
use std::collections::BTreeMap;

/// Whether a column lives on the Untrusted PC or the Secure token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Public data, stored on the Untrusted PC.
    Visible,
    /// Sensitive data, stored only on the token. Never leaves it.
    Hidden,
}

/// A column declaration. The surrogate `id` is implicit in every table and
/// replicated on both sides (§2.1), so it never appears here.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name, unique within its table.
    pub name: String,
    /// Declared type and width.
    pub ty: ColumnType,
    /// Visible or Hidden.
    pub visibility: Visibility,
}

impl Column {
    /// A visible column.
    pub fn visible(name: &str, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
            visibility: Visibility::Visible,
        }
    }

    /// A hidden column.
    pub fn hidden(name: &str, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
            visibility: Visibility::Hidden,
        }
    }
}

/// A foreign-key edge: `column` of this table references `references.id`.
/// The design guideline of §2.1 hides all foreign keys; we allow visible
/// ones too (footnote 5 discusses that relaxation) but the paper's
/// experiments keep them hidden.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignKey {
    /// Name of the referencing column (must be an Int{4} column).
    pub column: String,
    /// Name of the referenced table.
    pub references: String,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Non-key columns (the id is implicit).
    pub columns: Vec<Column>,
    /// Foreign-key edges to child tables.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableDef {
    /// New table with no columns.
    pub fn new(name: &str) -> Self {
        TableDef {
            name: name.into(),
            columns: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Builder: add a column.
    pub fn with_column(mut self, column: Column) -> Self {
        self.columns.push(column);
        self
    }

    /// Builder: add a hidden foreign key to `references` named `column`.
    pub fn with_fk(mut self, column: &str, references: &str) -> Self {
        self.columns.push(Column::hidden(column, ColumnType::int()));
        self.foreign_keys.push(ForeignKey {
            column: column.into(),
            references: references.into(),
        });
        self
    }

    /// Find a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Columns with the given visibility, excluding foreign keys when
    /// `include_fks` is false.
    pub fn columns_with(&self, visibility: Visibility, include_fks: bool) -> Vec<&Column> {
        self.columns
            .iter()
            .filter(|c| c.visibility == visibility)
            .filter(|c| include_fks || !self.is_fk(&c.name))
            .collect()
    }

    /// True if `column` is a foreign key.
    pub fn is_fk(&self, column: &str) -> bool {
        self.foreign_keys.iter().any(|fk| fk.column == column)
    }

    /// Raw tuple width in bytes including the 4-byte id (for size models).
    pub fn raw_tuple_bytes(&self) -> u64 {
        4 + self
            .columns
            .iter()
            .map(|c| c.ty.width() as u64)
            .sum::<u64>()
    }
}

/// Index of a table within a [`SchemaTree`].
pub type TableId = usize;

/// A validated tree-structured schema.
#[derive(Debug, Clone)]
pub struct SchemaTree {
    defs: Vec<TableDef>,
    by_name: BTreeMap<String, TableId>,
    parent: Vec<Option<TableId>>,
    children: Vec<Vec<TableId>>,
    root: TableId,
}

impl SchemaTree {
    /// Validate a set of table definitions as a tree and build the schema.
    ///
    /// Rules (§3): exactly one root (a table referenced by no foreign key);
    /// every other table is referenced by exactly one parent; foreign keys
    /// reference existing tables; edges form a single connected tree.
    pub fn new(defs: Vec<TableDef>) -> Result<Self> {
        if defs.is_empty() {
            return Err(StorageError::Schema("empty schema".into()));
        }
        let mut by_name = BTreeMap::new();
        for (i, def) in defs.iter().enumerate() {
            if by_name.insert(def.name.clone(), i).is_some() {
                return Err(StorageError::Schema(format!(
                    "duplicate table {}",
                    def.name
                )));
            }
            let mut col_names = std::collections::BTreeSet::new();
            for c in &def.columns {
                c.ty.validate();
                if !col_names.insert(&c.name) {
                    return Err(StorageError::Schema(format!(
                        "duplicate column {}.{}",
                        def.name, c.name
                    )));
                }
            }
        }
        let mut parent: Vec<Option<TableId>> = vec![None; defs.len()];
        let mut children: Vec<Vec<TableId>> = vec![Vec::new(); defs.len()];
        for (i, def) in defs.iter().enumerate() {
            for fk in &def.foreign_keys {
                let target = *by_name.get(&fk.references).ok_or_else(|| {
                    StorageError::Schema(format!(
                        "{}.{} references unknown table {}",
                        def.name, fk.column, fk.references
                    ))
                })?;
                if def.column(&fk.column).is_none() {
                    return Err(StorageError::Schema(format!(
                        "foreign key column {}.{} not declared",
                        def.name, fk.column
                    )));
                }
                if parent[target].is_some() {
                    return Err(StorageError::Schema(format!(
                        "table {} referenced by more than one parent (not a tree)",
                        fk.references
                    )));
                }
                if target == i {
                    return Err(StorageError::Schema(format!(
                        "table {} references itself",
                        def.name
                    )));
                }
                parent[target] = Some(i);
                children[i].push(target);
            }
        }
        let roots: Vec<TableId> = (0..defs.len()).filter(|i| parent[*i].is_none()).collect();
        if roots.len() != 1 {
            return Err(StorageError::Schema(format!(
                "schema must have exactly one root table, found {}",
                roots.len()
            )));
        }
        let root = roots[0];
        // Connectivity + acyclicity: DFS from the root must reach everyone.
        let mut seen = vec![false; defs.len()];
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if seen[t] {
                return Err(StorageError::Schema("cycle in schema".into()));
            }
            seen[t] = true;
            stack.extend(&children[t]);
        }
        if !seen.iter().all(|s| *s) {
            return Err(StorageError::Schema(
                "schema is not connected (unreachable tables)".into(),
            ));
        }
        Ok(SchemaTree {
            defs,
            by_name,
            parent,
            children,
            root,
        })
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if the schema is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The root table (`T0` in the paper).
    pub fn root(&self) -> TableId {
        self.root
    }

    /// Table definition.
    pub fn def(&self, t: TableId) -> &TableDef {
        &self.defs[t]
    }

    /// Resolve a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::Unknown(name.into()))
    }

    /// All table ids.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        0..self.defs.len()
    }

    /// Parent table, if any.
    pub fn parent(&self, t: TableId) -> Option<TableId> {
        self.parent[t]
    }

    /// Direct children (tables this table's foreign keys reference), in
    /// declaration order.
    pub fn children(&self, t: TableId) -> &[TableId] {
        &self.children[t]
    }

    /// Ancestors from the immediate parent up to the root (paper: the
    /// climbing targets of an index on `t`, beyond `t` itself).
    pub fn ancestors(&self, t: TableId) -> Vec<TableId> {
        let mut out = Vec::new();
        let mut cur = self.parent[t];
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent[p];
        }
        out
    }

    /// All descendants of `t` in DFS pre-order (the SKT column layout).
    pub fn descendants(&self, t: TableId) -> Vec<TableId> {
        let mut out = Vec::new();
        let mut stack: Vec<TableId> = self.children[t].iter().rev().copied().collect();
        while let Some(c) = stack.pop() {
            out.push(c);
            for gc in self.children[c].iter().rev() {
                stack.push(*gc);
            }
        }
        out
    }

    /// True if `anc` is `t` or an ancestor of `t`.
    pub fn is_ancestor_or_self(&self, anc: TableId, t: TableId) -> bool {
        if anc == t {
            return true;
        }
        self.ancestors(t).contains(&anc)
    }

    /// The foreign-key column of `parent(t)` that references `t`.
    pub fn fk_into(&self, t: TableId) -> Option<(&TableDef, &ForeignKey)> {
        let p = self.parent[t]?;
        let def = &self.defs[p];
        def.foreign_keys
            .iter()
            .find(|fk| self.by_name[&fk.references] == t)
            .map(|fk| (def, fk))
    }
}

/// The paper's running synthetic schema (Figure 3 / §6.2): a root `T0`
/// referencing `T1` and `T2`; `T1` referencing `T11` and `T12`. Each table
/// gets `n_visible` visible and `n_hidden` hidden 10-byte attributes named
/// `v1..` and `h1..`.
pub fn paper_synthetic_schema(n_visible: usize, n_hidden: usize) -> SchemaTree {
    let attr = |def: TableDef, n_visible: usize, n_hidden: usize| -> TableDef {
        let mut def = def;
        for i in 1..=n_visible {
            def = def.with_column(Column::visible(&format!("v{i}"), ColumnType::char(10)));
        }
        for i in 1..=n_hidden {
            def = def.hidden_attr(i);
        }
        def
    };
    // Small helper via extension trait pattern kept local for clarity.
    trait HiddenAttr {
        fn hidden_attr(self, i: usize) -> Self;
    }
    impl HiddenAttr for TableDef {
        fn hidden_attr(self, i: usize) -> Self {
            self.with_column(Column::hidden(&format!("h{i}"), ColumnType::char(10)))
        }
    }
    let t0 = attr(
        TableDef::new("T0")
            .with_fk("fk1", "T1")
            .with_fk("fk2", "T2"),
        n_visible,
        n_hidden,
    );
    let t1 = attr(
        TableDef::new("T1")
            .with_fk("fk11", "T11")
            .with_fk("fk12", "T12"),
        n_visible,
        n_hidden,
    );
    let t2 = attr(TableDef::new("T2"), n_visible, n_hidden);
    let t11 = attr(TableDef::new("T11"), n_visible, n_hidden);
    let t12 = attr(TableDef::new("T12"), n_visible, n_hidden);
    SchemaTree::new(vec![t0, t1, t2, t11, t12]).expect("paper schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schema_tree_shape() {
        let s = paper_synthetic_schema(5, 5);
        let t0 = s.table_id("T0").unwrap();
        let t1 = s.table_id("T1").unwrap();
        let t12 = s.table_id("T12").unwrap();
        assert_eq!(s.root(), t0);
        assert_eq!(s.parent(t1), Some(t0));
        assert_eq!(s.parent(t12), Some(t1));
        assert_eq!(s.ancestors(t12), vec![t1, t0]);
        let desc: Vec<&str> = s
            .descendants(t0)
            .into_iter()
            .map(|t| s.def(t).name.as_str())
            .collect();
        assert_eq!(desc, vec!["T1", "T11", "T12", "T2"]);
        assert!(s.is_ancestor_or_self(t0, t12));
        assert!(!s.is_ancestor_or_self(t12, t1));
    }

    #[test]
    fn fk_into_finds_referencing_column() {
        let s = paper_synthetic_schema(1, 1);
        let t12 = s.table_id("T12").unwrap();
        let (def, fk) = s.fk_into(t12).unwrap();
        assert_eq!(def.name, "T1");
        assert_eq!(fk.column, "fk12");
    }

    #[test]
    fn rejects_two_parents() {
        let a = TableDef::new("A").with_fk("fk_c", "C");
        let b = TableDef::new("B").with_fk("fk_c2", "C");
        let c = TableDef::new("C");
        // Two roots AND C referenced twice: both errors; parent check fires.
        let err = SchemaTree::new(vec![a, b, c]).unwrap_err();
        assert!(matches!(err, StorageError::Schema(_)));
    }

    #[test]
    fn rejects_missing_reference() {
        let a = TableDef::new("A").with_fk("fk_x", "X");
        assert!(SchemaTree::new(vec![a]).is_err());
    }

    #[test]
    fn rejects_multiple_roots() {
        let a = TableDef::new("A");
        let b = TableDef::new("B");
        assert!(SchemaTree::new(vec![a, b]).is_err());
    }

    #[test]
    fn rejects_self_reference() {
        let a = TableDef::new("A").with_fk("fk_a", "A");
        assert!(SchemaTree::new(vec![a]).is_err());
    }

    #[test]
    fn visibility_partitions() {
        let s = paper_synthetic_schema(2, 3);
        let t0 = s.def(s.table_id("T0").unwrap());
        assert_eq!(t0.columns_with(Visibility::Visible, true).len(), 2);
        // 3 hidden attrs + 2 hidden fks.
        assert_eq!(t0.columns_with(Visibility::Hidden, true).len(), 5);
        assert_eq!(t0.columns_with(Visibility::Hidden, false).len(), 3);
        assert!(t0.is_fk("fk1"));
        assert!(!t0.is_fk("h1"));
    }

    #[test]
    fn raw_tuple_bytes_counts_everything() {
        let s = paper_synthetic_schema(5, 5);
        let t0 = s.def(s.table_id("T0").unwrap());
        // id(4) + 2 fks(4 each) + 10 attrs of 10 bytes.
        assert_eq!(t0.raw_tuple_bytes(), 4 + 8 + 100);
    }
}
