//! Terraform-native `validate` reimplementation.
//!
//! Matches programs against the provider schema JSON: required attributes,
//! enum domains, type mismatches, and the handful of attribute conflicts
//! providers declare (e.g. a Linux VM needs a password *or* SSH key).
//! These checks run at the configuration stage — they are the 11.74% of
//! Table 4, and only a third of their hits are true semantic violations.

use crate::{Finding, IacChecker};
use zodiac_kb::{AttrKind, KnowledgeBase, ValueFormat};
use zodiac_model::{Program, Resource, Value};

/// The native validator.
pub struct NativeValidate {
    kb: KnowledgeBase,
}

impl NativeValidate {
    /// Creates a validator over the Azure provider schema.
    pub fn new_azure() -> Self {
        NativeValidate {
            kb: zodiac_kb::azure_kb(),
        }
    }

    fn check_resource(&self, r: &Resource, out: &mut Vec<Finding>) {
        let Some(schema) = self.kb.resource(&r.rtype) else {
            out.push(Finding {
                tool: "native",
                rule: "unknown-resource-type".into(),
                resource: r.id(),
                message: format!("unsupported resource type {}", r.rtype),
                deployment_relevant: true,
            });
            return;
        };
        // Required top-level attributes.
        for attr in schema.attrs.values() {
            if attr.kind == AttrKind::Required
                && !attr.path.contains('.')
                && r.get_attr(&attr.path).is_none()
            {
                out.push(Finding {
                    tool: "native",
                    rule: "missing-required".into(),
                    resource: r.id(),
                    message: format!("missing required argument {}", attr.path),
                    deployment_relevant: true,
                });
            }
        }
        // Enum domains / int ranges on leaf values.
        for attr in schema.attrs.values() {
            for v in r.get_all(&attr.path) {
                match (&attr.format, v) {
                    (ValueFormat::Enum { values, .. }, Value::Str(s))
                        if !values.iter().any(|x| x == s) =>
                    {
                        out.push(Finding {
                            tool: "native",
                            rule: "invalid-enum".into(),
                            resource: r.id(),
                            message: format!(
                                "expected {} to be one of {values:?}, got {s:?}",
                                attr.path
                            ),
                            deployment_relevant: true,
                        });
                    }
                    (ValueFormat::IntRange { min, max }, Value::Int(n)) if n < min || n > max => {
                        out.push(Finding {
                            tool: "native",
                            rule: "out-of-range".into(),
                            resource: r.id(),
                            message: format!("{} must be in [{min}, {max}]", attr.path),
                            deployment_relevant: true,
                        });
                    }
                    _ => {}
                }
            }
        }
        // Declared attribute conflicts (style findings, not deploy-relevant):
        // a Linux VM without password must allow key auth.
        if r.rtype == "azurerm_linux_virtual_machine" {
            let has_password = r
                .get_attr("admin_password")
                .map(|v| !v.is_null())
                .unwrap_or(false);
            let password_disabled = r
                .get_attr("disable_password_authentication")
                .and_then(Value::as_bool)
                .unwrap_or(true);
            if has_password && password_disabled {
                out.push(Finding {
                    tool: "native",
                    rule: "conflicting-auth".into(),
                    resource: r.id(),
                    message: "admin_password set while password authentication is disabled".into(),
                    deployment_relevant: true,
                });
            }
            if !has_password && !password_disabled {
                out.push(Finding {
                    tool: "native",
                    rule: "missing-auth".into(),
                    resource: r.id(),
                    message: "neither admin_password nor SSH key authentication configured".into(),
                    deployment_relevant: true,
                });
            }
        }
    }
}

impl IacChecker for NativeValidate {
    fn name(&self) -> &'static str {
        "native"
    }

    fn check(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for r in program.resources() {
            self.check_resource(r, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_missing_required() {
        let p = Program::new().with(Resource::new("azurerm_virtual_network", "v"));
        let v = NativeValidate::new_azure();
        let findings = v.check(&p);
        assert!(findings.iter().any(|f| f.rule == "missing-required"));
    }

    #[test]
    fn flags_invalid_enum() {
        let p = Program::new().with(
            Resource::new("azurerm_public_ip", "ip")
                .with("name", "x")
                .with("location", "eastus")
                .with("resource_group_name", "rg")
                .with("allocation_method", "dynamic"),
        );
        let v = NativeValidate::new_azure();
        assert!(v.check(&p).iter().any(|f| f.rule == "invalid-enum"));
    }

    #[test]
    fn passes_semantic_violations() {
        // The paper's point: a VM/NIC region mismatch sails through native
        // validation.
        let p = Program::new().with(
            Resource::new("azurerm_network_interface", "nic")
                .with("name", "n")
                .with("location", "westus")
                .with("resource_group_name", "rg")
                .with(
                    "ip_configuration",
                    Value::Map(
                        [
                            ("name".to_string(), Value::s("i")),
                            (
                                "subnet_id".to_string(),
                                Value::r("azurerm_subnet", "s", "id"),
                            ),
                            (
                                "private_ip_address_allocation".to_string(),
                                Value::s("Dynamic"),
                            ),
                        ]
                        .into_iter()
                        .collect(),
                    ),
                ),
        );
        let v = NativeValidate::new_azure();
        let findings = v.check(&p);
        assert!(
            findings.is_empty(),
            "native validate should not catch semantic checks: {findings:?}"
        );
    }
}
