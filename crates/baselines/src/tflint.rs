//! TFLint-style linting.
//!
//! TFLint validates individual attribute values (available skus, regions)
//! and raises best-practice warnings, working on HCL source — it "does not
//! reason across different attributes or resources, and is thus incapable of
//! handling any checks mined by Zodiac" (§5.2). Because it only accepts
//! HCL, feeding it the JSON-plan negative test cases is a format mismatch;
//! [`TfLint::check_hcl`] is the honest interface, and the [`IacChecker`]
//! impl goes through the HCL printer to mimic that round trip.

use crate::{Finding, IacChecker};
use zodiac_kb::{KnowledgeBase, ValueFormat};
use zodiac_model::{Program, Value};

/// The linter.
pub struct TfLint {
    kb: KnowledgeBase,
}

impl TfLint {
    /// Creates a linter with the Azure ruleset.
    pub fn new_azure() -> Self {
        TfLint {
            kb: zodiac_kb::azure_kb(),
        }
    }

    /// Lints HCL source text (TFLint's only input format).
    pub fn check_hcl(&self, source: &str) -> Result<Vec<Finding>, zodiac_hcl::HclError> {
        let program = zodiac_hcl::compile(source)?;
        Ok(self.lint(&program))
    }

    fn lint(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for r in program.resources() {
            let Some(schema) = self.kb.resource(&r.rtype) else {
                continue;
            };
            // Per-attribute enum validation — the limit of TFLint's
            // reasoning.
            for attr in schema.attrs.values() {
                for v in r.get_all(&attr.path) {
                    if let (ValueFormat::Enum { values, .. }, Value::Str(s)) = (&attr.format, v) {
                        if !values.iter().any(|x| x == s) {
                            out.push(Finding {
                                tool: "tflint",
                                rule: format!("azurerm_invalid_{}", attr.path.replace('.', "_")),
                                resource: r.id(),
                                message: format!("\"{s}\" is an invalid value for {}", attr.path),
                                deployment_relevant: true,
                            });
                        }
                    }
                }
            }
            // Best-practice naming warning.
            if let Some(name) = r.get_attr("name").and_then(Value::as_str) {
                if name.contains('_') {
                    out.push(Finding {
                        tool: "tflint",
                        rule: "naming-convention".into(),
                        resource: r.id(),
                        message: "resource names should use hyphens, not underscores".into(),
                        deployment_relevant: false,
                    });
                }
            }
        }
        out
    }
}

impl IacChecker for TfLint {
    fn name(&self) -> &'static str {
        "tflint"
    }

    fn check(&self, program: &Program) -> Vec<Finding> {
        // Round-trip through HCL, as the real tool would require.
        let hcl = zodiac_hcl::to_hcl(program);
        self.check_hcl(&hcl).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lints_invalid_enum_from_hcl() {
        let src = r#"
resource "azurerm_public_ip" "ip" {
  name              = "ip1"
  location          = "eastus"
  allocation_method = "Sometimes"
}
"#;
        let lint = TfLint::new_azure();
        let findings = lint.check_hcl(src).unwrap();
        assert!(findings
            .iter()
            .any(|f| f.rule.contains("allocation_method")));
    }

    #[test]
    fn cannot_catch_inter_resource_checks() {
        let src = r#"
resource "azurerm_network_interface" "nic" {
  name     = "n"
  location = "westus"
}
resource "azurerm_linux_virtual_machine" "vm" {
  name                  = "v"
  location              = "eastus"
  network_interface_ids = [azurerm_network_interface.nic.id]
}
"#;
        let lint = TfLint::new_azure();
        let findings = lint.check_hcl(src).unwrap();
        assert!(
            findings.iter().all(|f| !f.deployment_relevant),
            "TFLint must not see the region mismatch: {findings:?}"
        );
    }

    #[test]
    fn naming_warning() {
        let src = "resource \"azurerm_virtual_network\" \"v\" {\n  name = \"bad_name\"\n}";
        let lint = TfLint::new_azure();
        let findings = lint.check_hcl(src).unwrap();
        assert!(findings.iter().any(|f| f.rule == "naming-convention"));
    }
}
