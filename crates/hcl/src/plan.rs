//! Terraform JSON deployment-plan ingestion.
//!
//! The paper's §6 roadmap for supporting other IaC frameworks is to operate
//! on compiled *deployment plans*: "CDKTF and Terraform share the same JSON
//! plan format; AWS CDK compiles into CloudFormation which also supports
//! JSON". This module parses the `terraform show -json` plan shape —
//! `planned_values` for concrete attribute values plus
//! `configuration.root_module.resources[].expressions` for inter-resource
//! references — into a [`Program`], so every Zodiac phase works on plans
//! produced by any frontend that emits this format.

use crate::error::HclError;
use serde_json::Value as Json;
use std::collections::BTreeMap;
use zodiac_model::{AttrPath, Program, Reference, Resource, Value};

/// Parses a Terraform JSON plan into a program.
///
/// Supported shape (the stable subset of `terraform show -json`):
///
/// ```json
/// {
///   "planned_values": { "root_module": { "resources": [
///       { "type": "azurerm_subnet", "name": "a", "values": { ... } } ] } },
///   "configuration": { "root_module": { "resources": [
///       { "type": "azurerm_subnet", "name": "a",
///         "expressions": { "virtual_network_name":
///             { "references": ["azurerm_virtual_network.v.name"] } } } ] } }
/// }
/// ```
pub fn from_plan_json(input: &str) -> Result<Program, HclError> {
    let json: Json = serde_json::from_str(input)
        .map_err(|e| HclError::new(format!("invalid plan JSON: {e}")))?;
    let mut program = Program::new();

    let planned = json
        .pointer("/planned_values/root_module/resources")
        .and_then(Json::as_array)
        .ok_or_else(|| HclError::new("plan has no planned_values.root_module.resources"))?;
    for entry in planned {
        let rtype = entry
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| HclError::new("resource entry missing type"))?;
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| HclError::new("resource entry missing name"))?;
        let mut resource = Resource::new(rtype, name);
        if let Some(values) = entry.get("values").and_then(Json::as_object) {
            for (k, v) in values {
                resource.attrs.insert(k.clone(), json_to_value(v));
            }
        }
        program
            .add(resource)
            .map_err(|e| HclError::new(e.to_string()))?;
    }

    // Overlay references from the configuration section: expressions with
    // `references` become `Value::Ref` edges (the plan's `values` only carry
    // `null` for computed attributes like ids).
    if let Some(config) = json
        .pointer("/configuration/root_module/resources")
        .and_then(Json::as_array)
    {
        for entry in config {
            let (Some(rtype), Some(name)) = (
                entry.get("type").and_then(Json::as_str),
                entry.get("name").and_then(Json::as_str),
            ) else {
                continue;
            };
            let Some(expressions) = entry.get("expressions").and_then(Json::as_object) else {
                continue;
            };
            let id = zodiac_model::ResourceId::new(rtype, name);
            let Some(resource) = program.find_mut(&id) else {
                continue;
            };
            overlay_refs(resource, &AttrPath(Vec::new()), expressions);
        }
    }

    Ok(program)
}

fn overlay_refs(
    resource: &mut Resource,
    base: &AttrPath,
    expressions: &serde_json::Map<String, Json>,
) {
    for (attr, expr) in expressions {
        let mut path = base.clone();
        path.0.push(attr.clone());
        match expr {
            // `{ "references": ["azurerm_x.y.attr", "azurerm_x.y"] }`
            Json::Object(o) if o.contains_key("references") => {
                let Some(refs) = o.get("references").and_then(Json::as_array) else {
                    continue;
                };
                // Terraform lists both `type.name.attr` and the `type.name`
                // prefix; take the most specific (first) entry.
                let Some(reference) = refs
                    .iter()
                    .filter_map(Json::as_str)
                    .find(|s| s.split('.').count() >= 3)
                    .and_then(|s| s.parse::<Reference>().ok())
                else {
                    continue;
                };
                resource.set(&path, Value::Ref(reference));
            }
            // Nested single block: `{ "name": {...}, "subnet_id": {...} }`
            Json::Object(o) => {
                overlay_refs(resource, &path, o);
            }
            // Repeated blocks: `[ { ... }, { ... } ]`
            Json::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    if let Json::Object(o) = item {
                        let mut idx_path = path.clone();
                        idx_path.0.push(i.to_string());
                        overlay_refs(resource, &idx_path, o);
                    }
                }
            }
            _ => {}
        }
    }
}

fn json_to_value(v: &Json) -> Value {
    match v {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Number(n) => n
            .as_i64()
            .map(Value::Int)
            .unwrap_or_else(|| Value::s(n.to_string())),
        Json::String(s) => Value::s(s.clone()),
        Json::Array(items) => Value::List(items.iter().map(json_to_value).collect()),
        Json::Object(o) => Value::Map(
            o.iter()
                .map(|(k, val)| (k.clone(), json_to_value(val)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = r#"{
      "format_version": "1.2",
      "planned_values": { "root_module": { "resources": [
        { "address": "azurerm_virtual_network.v", "type": "azurerm_virtual_network",
          "name": "v",
          "values": { "name": "vnet1", "location": "eastus",
                      "address_space": ["10.0.0.0/16"] } },
        { "address": "azurerm_subnet.a", "type": "azurerm_subnet", "name": "a",
          "values": { "name": "internal", "address_prefixes": ["10.0.1.0/24"],
                      "virtual_network_name": null } },
        { "address": "azurerm_network_interface.n",
          "type": "azurerm_network_interface", "name": "n",
          "values": { "name": "nic", "location": "eastus",
                      "ip_configuration": [
                        { "name": "i", "private_ip_address_allocation": "Dynamic" } ] } }
      ] } },
      "configuration": { "root_module": { "resources": [
        { "type": "azurerm_subnet", "name": "a",
          "expressions": { "virtual_network_name":
            { "references": ["azurerm_virtual_network.v.name", "azurerm_virtual_network.v"] } } },
        { "type": "azurerm_network_interface", "name": "n",
          "expressions": { "ip_configuration": [
            { "subnet_id": { "references": ["azurerm_subnet.a.id", "azurerm_subnet.a"] } } ] } }
      ] } }
    }"#;

    #[test]
    fn parses_values_and_references() {
        let program = from_plan_json(PLAN).unwrap();
        assert_eq!(program.len(), 3);
        let subnet = program
            .find(&zodiac_model::ResourceId::new("azurerm_subnet", "a"))
            .unwrap();
        assert_eq!(
            subnet.get_attr("virtual_network_name"),
            Some(&Value::r("azurerm_virtual_network", "v", "name"))
        );
        // The nested list block got its reference too.
        let nic = program
            .find(&zodiac_model::ResourceId::new(
                "azurerm_network_interface",
                "n",
            ))
            .unwrap();
        assert_eq!(
            nic.get("ip_configuration.0.subnet_id"),
            Some(&Value::r("azurerm_subnet", "a", "id"))
        );
    }

    #[test]
    fn plan_program_builds_a_connected_graph() {
        let program = from_plan_json(PLAN).unwrap();
        let graph = zodiac_graph::ResourceGraph::build(program);
        assert_eq!(graph.edges().len(), 2);
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(from_plan_json("not json").is_err());
        assert!(from_plan_json("{}").is_err());
        assert!(from_plan_json(
            r#"{"planned_values":{"root_module":{"resources":[{"name":"x"}]}}}"#
        )
        .is_err());
    }

    #[test]
    fn plan_without_configuration_still_parses() {
        let plan = r#"{ "planned_values": { "root_module": { "resources": [
            { "type": "azurerm_resource_group", "name": "rg",
              "values": { "name": "rg1", "location": "eastus" } } ] } } }"#;
        let program = from_plan_json(plan).unwrap();
        assert_eq!(program.len(), 1);
    }
}
