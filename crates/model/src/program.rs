//! Compiled IaC programs and their resources.

use crate::error::ModelError;
use crate::value::{AttrPath, Reference, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identity of a resource inside a program: `(type, local name)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId {
    /// Resource type, e.g. `azurerm_virtual_machine`.
    pub rtype: String,
    /// Local (block) name, e.g. `web`.
    pub name: String,
}

impl ResourceId {
    /// Creates an id from a type and a local name.
    pub fn new(rtype: impl Into<String>, name: impl Into<String>) -> Self {
        ResourceId {
            rtype: rtype.into(),
            name: name.into(),
        }
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.rtype, self.name)
    }
}

/// A single resource block in a compiled program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resource {
    /// Resource type, e.g. `azurerm_subnet`.
    pub rtype: String,
    /// Local name of the block.
    pub name: String,
    /// Top-level attributes (values may nest).
    pub attrs: BTreeMap<String, Value>,
}

impl Resource {
    /// Creates an empty resource of the given type and name.
    pub fn new(rtype: impl Into<String>, name: impl Into<String>) -> Self {
        Resource {
            rtype: rtype.into(),
            name: name.into(),
            attrs: BTreeMap::new(),
        }
    }

    /// The identity of this resource.
    pub fn id(&self) -> ResourceId {
        ResourceId::new(&self.rtype, &self.name)
    }

    /// Sets a top-level attribute, builder-style.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Looks up the one attribute at a dotted `path`; numeric segments
    /// index lists (`security_rule.0.direction`).
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut segs = path.split('.');
        self.attrs.get(segs.next()?)?.get_path(segs)
    }

    /// Every value at a dotted `path`: the reader behind check endpoints.
    /// Non-numeric segments fan out over list elements, numeric ones index
    /// them, and a list at the end of the path yields its leaves, so
    /// `address_prefixes` reads every CIDR in the list and
    /// `security_rule.priority` every rule's priority. An explicit `Null`
    /// is read; an absent attribute reads as nothing.
    pub fn get_all(&self, path: &str) -> Vec<&Value> {
        fn descend<'a>(v: &'a Value, path: Option<&str>, out: &mut Vec<&'a Value>) {
            let Some(path) = path else {
                match v {
                    Value::List(l) => l.iter().for_each(|item| descend(item, None, out)),
                    leaf => out.push(leaf),
                }
                return;
            };
            let (head, rest) = split_head(path);
            match v {
                Value::Map(m) => {
                    if let Some(inner) = m.get(head) {
                        descend(inner, rest, out);
                    }
                }
                Value::List(l) => match head.parse::<usize>() {
                    Ok(idx) => {
                        if let Some(inner) = l.get(idx) {
                            descend(inner, rest, out);
                        }
                    }
                    Err(_) => l.iter().for_each(|item| descend(item, Some(path), out)),
                },
                _ => {}
            }
        }
        let (head, rest) = split_head(path);
        let mut out = Vec::new();
        if let Some(v) = self.attrs.get(head) {
            descend(v, rest, &mut out);
        }
        out
    }

    /// Looks up a single-segment attribute by name.
    pub fn get_attr(&self, name: &str) -> Option<&Value> {
        self.attrs.get(name)
    }

    /// Sets a (possibly nested) attribute by path, creating intermediate maps.
    ///
    /// Numeric segments index existing list elements; setting past the end of
    /// a list appends. Returns false if the path traverses a scalar.
    pub fn set(&mut self, path: &AttrPath, value: Value) -> bool {
        fn set_inner(cur: &mut Value, path: &[String], value: Value) -> bool {
            let Some((head, rest)) = path.split_first() else {
                *cur = value;
                return true;
            };
            match cur {
                Value::Map(m) => {
                    let slot = m.entry(head.clone()).or_insert(Value::Null);
                    if matches!(slot, Value::Null) && !rest.is_empty() {
                        *slot = Value::Map(BTreeMap::new());
                    }
                    set_inner(slot, rest, value)
                }
                Value::List(l) => {
                    let Ok(idx) = head.parse::<usize>() else {
                        return false;
                    };
                    if idx < l.len() {
                        set_inner(&mut l[idx], rest, value)
                    } else if idx == l.len() {
                        let mut v = if rest.is_empty() {
                            Value::Null
                        } else {
                            Value::Map(BTreeMap::new())
                        };
                        let ok = set_inner(&mut v, rest, value);
                        l.push(v);
                        ok
                    } else {
                        false
                    }
                }
                _ => false,
            }
        }

        let Some((head, rest)) = path.0.split_first() else {
            return false;
        };
        if rest.is_empty() {
            self.attrs.insert(head.clone(), value);
            return true;
        }
        let slot = self.attrs.entry(head.clone()).or_insert(Value::Null);
        if matches!(slot, Value::Null) {
            *slot = Value::Map(BTreeMap::new());
        }
        set_inner(slot, rest, value)
    }

    /// Removes a top-level attribute.
    pub fn unset(&mut self, name: &str) -> Option<Value> {
        self.attrs.remove(name)
    }

    /// All references contained in this resource's attributes, with the
    /// attribute path where each occurs.
    pub fn references(&self) -> Vec<(AttrPath, Reference)> {
        let mut out = Vec::new();
        for (k, v) in &self.attrs {
            v.collect_refs(&AttrPath::single(k.clone()), &mut out);
        }
        out
    }
}

/// Splits a dotted path into its first segment and the rest, if any.
fn split_head(path: &str) -> (&str, Option<&str>) {
    match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    }
}

/// A compiled IaC program: an ordered set of resources.
///
/// Resource identities are unique; [`Program::add`] rejects duplicates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    resources: Vec<Resource>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a resource, rejecting duplicate `(type, name)` pairs.
    pub fn add(&mut self, r: Resource) -> Result<(), ModelError> {
        if self.find(&r.id()).is_some() {
            return Err(ModelError::DuplicateResource(r.id().to_string()));
        }
        self.resources.push(r);
        Ok(())
    }

    /// Builder-style [`Program::add`] that panics on duplicates.
    ///
    /// # Panics
    ///
    /// Panics if a resource with the same identity already exists. Intended
    /// for tests and generators that construct programs from scratch.
    pub fn with(mut self, r: Resource) -> Self {
        self.add(r).expect("duplicate resource in builder");
        self
    }

    /// All resources in declaration order.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Mutable access to all resources.
    pub fn resources_mut(&mut self) -> &mut Vec<Resource> {
        &mut self.resources
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// True if the program has no resources.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Finds a resource by identity.
    pub fn find(&self, id: &ResourceId) -> Option<&Resource> {
        self.resources
            .iter()
            .find(|r| r.rtype == id.rtype && r.name == id.name)
    }

    /// Finds a resource by identity, mutably.
    pub fn find_mut(&mut self, id: &ResourceId) -> Option<&mut Resource> {
        self.resources
            .iter_mut()
            .find(|r| r.rtype == id.rtype && r.name == id.name)
    }

    /// All resources of a given type.
    pub fn of_type<'a>(&'a self, rtype: &'a str) -> impl Iterator<Item = &'a Resource> + 'a {
        self.resources.iter().filter(move |r| r.rtype == rtype)
    }

    /// Removes a resource by identity; returns true if it was present.
    pub fn remove(&mut self, id: &ResourceId) -> bool {
        let before = self.resources.len();
        self.resources
            .retain(|r| !(r.rtype == id.rtype && r.name == id.name));
        self.resources.len() != before
    }

    /// Retains only the resources whose ids are in `keep`.
    pub fn retain_ids(&mut self, keep: &std::collections::HashSet<ResourceId>) {
        self.resources.retain(|r| keep.contains(&r.id()));
    }

    /// The distinct resource types present, sorted.
    pub fn types(&self) -> Vec<String> {
        let mut t: Vec<String> = self.resources.iter().map(|r| r.rtype.clone()).collect();
        t.sort();
        t.dedup();
        t
    }

    /// Serialises to the JSON deployment-plan format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("program serialisation cannot fail")
    }

    /// Parses a program from the JSON deployment-plan format.
    pub fn from_json(s: &str) -> Result<Self, ModelError> {
        serde_json::from_str(s).map_err(|e| ModelError::InvalidReference(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program::new()
            .with(
                Resource::new("azurerm_virtual_network", "vnet")
                    .with("name", "vnet1")
                    .with("location", "eastus"),
            )
            .with(
                Resource::new("azurerm_subnet", "a")
                    .with("name", "internal")
                    .with(
                        "virtual_network_name",
                        Value::r("azurerm_virtual_network", "vnet", "name"),
                    ),
            )
    }

    #[test]
    fn add_rejects_duplicates() {
        let mut p = sample();
        let err = p.add(Resource::new("azurerm_subnet", "a")).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateResource(_)));
    }

    #[test]
    fn find_and_of_type() {
        let p = sample();
        assert!(p.find(&ResourceId::new("azurerm_subnet", "a")).is_some());
        assert!(p.find(&ResourceId::new("azurerm_subnet", "b")).is_none());
        assert_eq!(p.of_type("azurerm_subnet").count(), 1);
    }

    #[test]
    fn nested_set_and_get() {
        let mut r = Resource::new("azurerm_virtual_machine", "vm");
        let path: AttrPath = "os_disk.name".parse().unwrap();
        assert!(r.set(&path, Value::s("osdisk1")));
        assert_eq!(r.get("os_disk.name"), Some(&Value::s("osdisk1")));
        assert_eq!(
            r.get_attr("os_disk")
                .and_then(|v| v.as_map())
                .map(|m| m.len()),
            Some(1)
        );
    }

    #[test]
    fn get_all_fans_out_over_lists_and_get_reads_one_value() {
        let rule = |priority: i64| {
            Value::Map(BTreeMap::from([(
                "priority".to_string(),
                Value::Int(priority),
            )]))
        };
        let r = Resource::new("azurerm_network_security_group", "sg")
            .with("security_rule", Value::List(vec![rule(100), rule(200)]))
            .with("tags", Value::Null);
        assert_eq!(
            r.get_all("security_rule.priority"),
            [&Value::Int(100), &Value::Int(200)]
        );
        assert_eq!(r.get_all("security_rule.1.priority"), [&Value::Int(200)]);
        assert_eq!(r.get_all("tags"), [&Value::Null]);
        assert!(r.get_all("missing").is_empty());
        assert_eq!(r.get("security_rule.0.priority"), Some(&Value::Int(100)));
        assert_eq!(r.get("security_rule.priority"), None);
    }

    #[test]
    fn set_appends_to_list() {
        let mut r = Resource::new("azurerm_virtual_machine", "vm");
        r.attrs.insert(
            "nic_ids".to_string(),
            Value::List(vec![Value::r("azurerm_network_interface", "a", "id")]),
        );
        let path: AttrPath = "nic_ids.1".parse().unwrap();
        assert!(r.set(&path, Value::r("azurerm_network_interface", "b", "id")));
        assert_eq!(r.get_attr("nic_ids").unwrap().as_list().unwrap().len(), 2);
        // Setting far past the end fails.
        let bad: AttrPath = "nic_ids.9".parse().unwrap();
        assert!(!r.set(&bad, Value::Null));
    }

    #[test]
    fn references_collects_edges() {
        let p = sample();
        let subnet = p.find(&ResourceId::new("azurerm_subnet", "a")).unwrap();
        let refs = subnet.references();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].1.rtype, "azurerm_virtual_network");
    }

    #[test]
    fn json_roundtrip() {
        let p = sample();
        let json = p.to_json();
        let back = Program::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn remove_and_retain() {
        let mut p = sample();
        assert!(p.remove(&ResourceId::new("azurerm_subnet", "a")));
        assert!(!p.remove(&ResourceId::new("azurerm_subnet", "a")));
        assert_eq!(p.len(), 1);
    }
}
