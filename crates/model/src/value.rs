//! Attribute values, attribute paths, and inter-resource references.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A reference from one resource's attribute to another resource's attribute.
///
/// In Terraform syntax this is `azurerm_subnet.internal.id`; in the compiled
/// plan it is the edge of the IaC resource graph. The attribute on the
/// *referencing* side is the **inbound endpoint**, the referenced attribute
/// (`attr` here, usually `id` or `name`) is the **outbound endpoint** (§3.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Reference {
    /// Resource type of the referenced resource, e.g. `azurerm_subnet`.
    pub rtype: String,
    /// Local name of the referenced resource, e.g. `internal`.
    pub name: String,
    /// Attribute of the referenced resource being read, e.g. `id`.
    pub attr: String,
}

impl Reference {
    /// Creates a reference to `rtype.name.attr`.
    pub fn new(rtype: impl Into<String>, name: impl Into<String>, attr: impl Into<String>) -> Self {
        Reference {
            rtype: rtype.into(),
            name: name.into(),
            attr: attr.into(),
        }
    }
}

impl fmt::Display for Reference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.rtype, self.name, self.attr)
    }
}

impl FromStr for Reference {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.splitn(3, '.').collect();
        if parts.len() != 3 || parts.iter().any(|p| p.is_empty()) {
            return Err(ModelError::InvalidReference(s.to_string()));
        }
        Ok(Reference::new(parts[0], parts[1], parts[2]))
    }
}

/// A dotted path addressing a (possibly nested) attribute within a resource.
///
/// Segments are attribute names; list elements are addressed with numeric
/// segments, e.g. `security_rule.0.direction`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrPath(pub Vec<String>);

impl AttrPath {
    /// A single-segment path.
    pub fn single(seg: impl Into<String>) -> Self {
        AttrPath(vec![seg.into()])
    }

    /// The leading segment, if the path is non-empty.
    pub fn head(&self) -> Option<&str> {
        self.0.first().map(String::as_str)
    }
}

impl FromStr for AttrPath {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s.split('.').any(|seg| seg.is_empty()) {
            return Err(ModelError::InvalidAttrPath(s.to_string()));
        }
        Ok(AttrPath(s.split('.').map(str::to_string).collect()))
    }
}

impl fmt::Display for AttrPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("."))
    }
}

/// An attribute value in a compiled IaC program.
///
/// This is a superset of JSON: [`Value::Ref`] carries unresolved
/// inter-resource references so graph construction does not need to re-parse
/// interpolation strings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// Explicit null (attribute present but empty).
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (Terraform numbers used by Azure resources are integral).
    Int(i64),
    /// String.
    Str(String),
    /// Ordered list.
    List(Vec<Value>),
    /// Nested block / object, key-ordered for determinism.
    Map(BTreeMap<String, Value>),
    /// Reference to another resource's attribute.
    Ref(Reference),
}

impl Value {
    /// Builds a string value.
    pub fn s(v: impl Into<String>) -> Value {
        Value::Str(v.into())
    }

    /// Builds a reference value to `rtype.name.attr`.
    pub fn r(rtype: &str, name: &str, attr: &str) -> Value {
        Value::Ref(Reference::new(rtype, name, attr))
    }

    /// Returns the string content if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean content if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the reference if this is a `Ref`.
    pub fn as_ref_value(&self) -> Option<&Reference> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }

    /// Returns the list contents if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the map contents if this is a `Map`.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Navigates a path inside this value.
    ///
    /// Numeric segments index into lists; other segments index into maps.
    pub fn get_path<S: AsRef<str>>(&self, path: impl IntoIterator<Item = S>) -> Option<&Value> {
        let mut cur = self;
        for seg in path {
            let seg = seg.as_ref();
            cur = match cur {
                Value::Map(m) => m.get(seg)?,
                Value::List(l) => l.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Collects every [`Reference`] reachable inside this value, paired with
    /// the path at which it occurs (relative to this value).
    pub fn collect_refs(&self, base: &AttrPath, out: &mut Vec<(AttrPath, Reference)>) {
        match self {
            Value::Ref(r) => out.push((base.clone(), r.clone())),
            Value::List(l) => {
                for (i, v) in l.iter().enumerate() {
                    let mut p = base.clone();
                    p.0.push(i.to_string());
                    v.collect_refs(&p, out);
                }
            }
            Value::Map(m) => {
                for (k, v) in m {
                    let mut p = base.clone();
                    p.0.push(k.clone());
                    v.collect_refs(&p, out);
                }
            }
            _ => {}
        }
    }

    /// A human-readable rendering used in reports and error messages.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => format!("\"{s}\""),
            Value::Ref(r) => r.to_string(),
            Value::List(l) => {
                let items: Vec<String> = l.iter().map(Value::render).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Map(m) => {
                let items: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("{k} = {}", v.render()))
                    .collect();
                format!("{{{}}}", items.join("; "))
            }
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_roundtrip() {
        let r: Reference = "azurerm_subnet.internal.id".parse().unwrap();
        assert_eq!(r.rtype, "azurerm_subnet");
        assert_eq!(r.name, "internal");
        assert_eq!(r.attr, "id");
        assert_eq!(r.to_string(), "azurerm_subnet.internal.id");
    }

    #[test]
    fn reference_rejects_malformed() {
        assert!("azurerm_subnet.internal".parse::<Reference>().is_err());
        assert!("a..b".parse::<Reference>().is_err());
        assert!("".parse::<Reference>().is_err());
    }

    #[test]
    fn attr_path_parse() {
        let p: AttrPath = "os_disk.name".parse().unwrap();
        assert_eq!(p.0, vec!["os_disk", "name"]);
        assert!("".parse::<AttrPath>().is_err());
        assert!("a..b".parse::<AttrPath>().is_err());
    }

    #[test]
    fn get_path_traverses_maps_and_lists() {
        let mut inner = BTreeMap::new();
        inner.insert("direction".to_string(), Value::s("Inbound"));
        let v = Value::Map(BTreeMap::from([(
            "security_rule".to_string(),
            Value::List(vec![Value::Map(inner)]),
        )]));
        let path: AttrPath = "security_rule.0.direction".parse().unwrap();
        assert_eq!(v.get_path(&path.0), Some(&Value::s("Inbound")));
        let missing: AttrPath = "security_rule.1.direction".parse().unwrap();
        assert_eq!(v.get_path(&missing.0), None);
    }

    #[test]
    fn collect_refs_finds_nested() {
        let v = Value::List(vec![
            Value::r("azurerm_network_interface", "a", "id"),
            Value::Map(BTreeMap::from([(
                "subnet_id".to_string(),
                Value::r("azurerm_subnet", "b", "id"),
            )])),
        ]);
        let mut out = Vec::new();
        v.collect_refs(&AttrPath::single("nic_ids"), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0.to_string(), "nic_ids.0");
        assert_eq!(out[1].0.to_string(), "nic_ids.1.subnet_id");
        assert_eq!(out[1].1.rtype, "azurerm_subnet");
    }
}
