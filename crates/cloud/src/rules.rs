//! Ground-truth semantic rules enforced by the simulated cloud.
//!
//! Each rule mirrors a documented (or undocumented-but-real) Azure
//! requirement. Most are expressed directly in the Zodiac check language and
//! evaluated with the `zodiac-spec` evaluator; a handful need procedural
//! logic (name uniqueness, schema validation, address arithmetic) and are
//! implemented as [`CustomRule`]s.
//!
//! Every rule declares the deployment [`Phase`] at which its violation
//! surfaces and the *fix variable*: the bound resource that must change to
//! repair the violation, which drives the rollback-radius computation.

use crate::report::Phase;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use zodiac_graph::{NodeIdx, ResourceGraph};
use zodiac_kb::{docs, AttrKind, KnowledgeBase, ValueFormat};
use zodiac_model::{Cidr, Symbol, Value};
use zodiac_spec::{parse_check, violations, Check, EvalContext};

/// Category of a check, used for blast-radius bucketing (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CheckCategory {
    /// Constrains attributes of one resource.
    IntraResource,
    /// Relates attributes across connected resources (no aggregation).
    InterResource,
    /// Uses degree/length aggregation.
    InterAgg,
    /// Quantitative rules whose parameters come from documentation tables.
    Interpolation,
}

/// A single ground-truth violation instance.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id.
    pub rule_id: String,
    /// Bound resource nodes.
    pub involved: Vec<NodeIdx>,
    /// The node whose deployment step surfaced the violation.
    pub failing: NodeIdx,
    /// The node that must change to fix it.
    pub fix: NodeIdx,
    /// Error message.
    pub message: String,
}

impl Violation {
    /// Converts to the serialisable record form.
    pub fn into_record(self, graph: &ResourceGraph) -> crate::report::ViolationRecord {
        crate::report::ViolationRecord {
            rule_id: self.rule_id,
            involved: self
                .involved
                .iter()
                .map(|&n| graph.resource(n).id())
                .collect(),
            failing: graph.resource(self.failing).id(),
            fix: graph.resource(self.fix).id(),
            message: self.message,
        }
    }
}

/// The body of a ground rule.
pub enum RuleBody {
    /// A rule expressed in the check language; `fix_var` names the binding
    /// variable whose resource is the fix target.
    Spec {
        /// The check.
        check: Box<Check>,
        /// Fix-target variable.
        fix_var: Symbol,
    },
    /// A procedurally implemented rule.
    Custom(CustomRule),
}

/// Procedural rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CustomRule {
    /// Class-1/2 schema validation of the deploying resource: required
    /// attributes, enum domains, integer ranges, locations, CIDR syntax,
    /// and Class-3 endpoint target legality.
    Schema,
    /// References to resources absent from the program ("not found").
    DanglingRefs,
    /// Two deployed resources of the same type share a `name`.
    DuplicateNames,
    /// Storage-account names must be 3–24 lowercase alphanumerics.
    SaNameFormat,
    /// Reserved subnets have minimum sizes (GatewaySubnet /29,
    /// AzureFirewallSubnet /26, AzureBastionSubnet /26).
    ReservedSubnetSize,
    /// Security rules in one group with the same direction need distinct
    /// priorities.
    UniqueSgRulePriority,
    /// Data-disk attachments on one VM need distinct LUNs.
    UniqueLun,
    /// A statically allocated NIC address must lie in its subnet's range.
    PrivateIpInSubnet,
    /// VM skus are not offered in every region (§6's region-specific
    /// constraints, implemented as an extension).
    VmSkuRegionAvailability,
}

/// A ground-truth rule.
pub struct GroundRule {
    /// Stable id, e.g. `net/vm-nic-same-location`.
    pub id: String,
    /// Human-readable description.
    pub description: String,
    /// Phase at which violations surface.
    pub phase: Phase,
    /// Category for blast-radius bucketing.
    pub category: CheckCategory,
    /// The rule body.
    pub body: RuleBody,
}

impl GroundRule {
    /// Evaluates the rule at a deployment step: returns violations that are
    /// *introduced* by deploying `node` on top of `deployed`.
    pub fn eval(
        &self,
        graph: &ResourceGraph,
        kb: &KnowledgeBase,
        node: NodeIdx,
        deployed: &HashSet<NodeIdx>,
    ) -> Vec<Violation> {
        match &self.body {
            RuleBody::Spec { check, fix_var } => {
                let ctx = EvalContext {
                    graph,
                    kb: Some(kb),
                };
                violations(check, ctx)
                    .into_iter()
                    .filter(|i| {
                        i.binding.values().any(|&n| n == node)
                            && i.binding
                                .values()
                                .all(|&n| n == node || deployed.contains(&n))
                    })
                    .map(|i| {
                        let fix = i.binding.get(fix_var).copied().unwrap_or(node);
                        Violation {
                            rule_id: self.id.clone(),
                            involved: i.binding.values().copied().collect(),
                            failing: node,
                            fix,
                            message: format!("{}: {}", self.description, check),
                        }
                    })
                    .collect()
            }
            RuleBody::Custom(rule) => eval_custom(*rule, self, graph, kb, node, deployed),
        }
    }

    /// The check text, for spec-based rules.
    pub fn check(&self) -> Option<&Check> {
        match &self.body {
            RuleBody::Spec { check, .. } => Some(check.as_ref()),
            RuleBody::Custom(_) => None,
        }
    }
}

/// Builds a spec-based rule. Returns `None` when the check source fails to
/// parse or the fix variable is unbound; a malformed entry is dropped from
/// the table rather than panicking, and `tests/rules_coverage.rs` exercises
/// every rule id so a dropped rule fails the suite.
fn spec_rule(
    id: &str,
    phase: Phase,
    category: CheckCategory,
    fix_var: &str,
    check_src: &str,
    description: &str,
) -> Option<GroundRule> {
    let check = parse_check(check_src).ok()?;
    if !check.bindings.iter().any(|b| b.var == fix_var) {
        return None;
    }
    Some(GroundRule {
        id: id.to_string(),
        description: description.to_string(),
        phase,
        category,
        body: RuleBody::Spec {
            check: Box::new(check),
            fix_var: Symbol::intern(fix_var),
        },
    })
}

/// Builds a custom (imperative) rule. Infallible, but returns `Option` so
/// the rule table composes uniformly with [`spec_rule`].
fn custom_rule(
    id: &str,
    phase: Phase,
    category: CheckCategory,
    rule: CustomRule,
    description: &str,
) -> Option<GroundRule> {
    Some(GroundRule {
        id: id.to_string(),
        description: description.to_string(),
        phase,
        category,
        body: RuleBody::Custom(rule),
    })
}

/// The full Azure ground-truth rule set.
pub fn ground_truth() -> Vec<GroundRule> {
    use CheckCategory::*;
    use Phase::*;

    let table: Vec<Option<GroundRule>> = vec![
        // ------------------------------------------------ plugin checks ---
        custom_rule(
            "schema/validate",
            PluginCheck,
            IntraResource,
            CustomRule::Schema,
            "resource must satisfy provider schema",
        ),
        custom_rule(
            "schema/sa-name-format",
            PluginCheck,
            IntraResource,
            CustomRule::SaNameFormat,
            "storage account names are 3-24 lowercase alphanumerics",
        ),
        spec_rule(
            "ip/standard-needs-static",
            PluginCheck,
            IntraResource,
            "r",
            "let r:IP in r.sku == 'Standard' => r.allocation_method == 'Static'",
            "Standard sku public IPs must use static allocation",
        ),
        spec_rule(
            "nic/static-needs-address",
            PluginCheck,
            IntraResource,
            "r",
            "let r:NIC in r.ip_configuration.private_ip_address_allocation == 'Static' => r.ip_configuration.private_ip_address != null",
            "static NIC allocation requires an explicit private IP",
        ),
        spec_rule(
            "disk/copy-needs-source",
            PluginCheck,
            IntraResource,
            "r",
            "let r:DISK in r.create_option == 'Copy' => r.source_resource_id != null",
            "copied disks need a source resource",
        ),
        spec_rule(
            "route/appliance-needs-hop-ip",
            PluginCheck,
            IntraResource,
            "r",
            "let r:ROUTE in r.next_hop_type == 'VirtualAppliance' => r.next_hop_in_ip_address != null",
            "VirtualAppliance routes need a next-hop IP",
        ),
        // ---------------------------------------------- pre-deploy sync ---
        custom_rule(
            "name/duplicate",
            PreDeploySync,
            IntraResource,
            CustomRule::DuplicateNames,
            "resource names must be unique per type",
        ),
        spec_rule(
            "disk/os-data-name-clash",
            PreDeploySync,
            InterResource,
            "r3",
            "let r1:ATTACH, r2:VM, r3:DISK in coconn(r1.virtual_machine_id -> r2.id, r1.managed_disk_id -> r3.id) => r2.os_disk.name != r3.name",
            "os disk and data disks share the Azure disk namespace",
        ),
        // ---------------------------------------------- sending request ---
        custom_rule(
            "ref/dangling",
            SendingRequest,
            InterResource,
            CustomRule::DanglingRefs,
            "referenced resource was not found",
        ),
        custom_rule(
            "vm/sku-region-availability",
            SendingRequest,
            IntraResource,
            CustomRule::VmSkuRegionAvailability,
            "the requested VM size is not available in the region",
        ),
        custom_rule(
            "nic/private-ip-in-subnet",
            SendingRequest,
            InterResource,
            CustomRule::PrivateIpInSubnet,
            "static private IP must be inside the subnet range",
        ),
        custom_rule(
            "sg/unique-rule-priority",
            SendingRequest,
            IntraResource,
            CustomRule::UniqueSgRulePriority,
            "security rules of one direction need distinct priorities",
        ),
        custom_rule(
            "attach/unique-lun",
            SendingRequest,
            InterAgg,
            CustomRule::UniqueLun,
            "data disk LUNs must be unique per VM",
        ),
        spec_rule(
            "net/vm-nic-same-location",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
            "a VM and its NICs must share a region",
        ),
        spec_rule(
            "net/nic-vnet-same-location",
            SendingRequest,
            InterResource,
            "r1",
            "let r1:NIC, r2:VPC in path(r1 -> r2) => r1.location == r2.location",
            "a NIC must be in its virtual network's region",
        ),
        spec_rule(
            "net/subnet-in-vnet-range",
            SendingRequest,
            InterResource,
            "r1",
            "let r1:SUBNET, r2:VPC in conn(r1.virtual_network_name -> r2.name) => contain(r2.address_space, r1.address_prefixes)",
            "subnet prefixes must lie inside the VNet address space",
        ),
        spec_rule(
            "net/sibling-subnet-overlap",
            SendingRequest,
            InterResource,
            "r1",
            "let r1:SUBNET, r2:SUBNET, r3:VPC in coconn(r1.virtual_network_name -> r3.name, r2.virtual_network_name -> r3.name) => !overlap(r1.address_prefixes, r2.address_prefixes)",
            "subnets of one VNet cannot overlap",
        ),
        spec_rule(
            "net/peering-cidr-overlap",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:PEERING, r2:VPC, r3:VPC in coconn(r1.virtual_network_name -> r2.name, r1.remote_virtual_network_id -> r3.id) => !overlap(r2.address_space, r3.address_space)",
            "peered VNets cannot have overlapping address spaces",
        ),
        spec_rule(
            "gw/tunnel-vpc-overlap",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:TUNNEL, r2:VPC, r3:VPC in copath(r1 -> r2, r1 -> r3) => !overlap(r2.address_space, r3.address_space)",
            "tunneled VNets need exclusive CIDR ranges",
        ),
        spec_rule(
            "gw/requires-gateway-subnet",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:GW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => r2.name == 'GatewaySubnet'",
            "virtual network gateways deploy only into GatewaySubnet",
        ),
        spec_rule(
            "gw/gateway-subnet-exclusive",
            SendingRequest,
            InterAgg,
            "r1",
            "let r1:GW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => indegree(r2, !GW) == 0",
            "no other resource can share a gateway's subnet",
        ),
        spec_rule(
            "fw/requires-firewall-subnet",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:FW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => r2.name == 'AzureFirewallSubnet'",
            "firewalls deploy only into AzureFirewallSubnet",
        ),
        spec_rule(
            "fw/firewall-subnet-exclusive",
            SendingRequest,
            InterAgg,
            "r1",
            "let r1:FW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => indegree(r2, !FW) == 0",
            "no other resource can share a firewall's subnet",
        ),
        spec_rule(
            "fw/requires-standard-static-ip",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:FW, r2:IP in conn(r1.ip_configuration.public_ip_address_id -> r2.id) => r2.sku == 'Standard'",
            "firewall public IPs must be Standard sku",
        ),
        spec_rule(
            "bastion/requires-bastion-subnet",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:BASTION, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => r2.name == 'AzureBastionSubnet'",
            "bastion hosts deploy only into AzureBastionSubnet",
        ),
        spec_rule(
            "bastion/requires-standard-ip",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:BASTION, r2:IP in conn(r1.ip_configuration.public_ip_address_id -> r2.id) => r2.sku == 'Standard'",
            "bastion public IPs must be Standard sku",
        ),
        custom_rule(
            "net/reserved-subnet-size",
            SendingRequest,
            IntraResource,
            CustomRule::ReservedSubnetSize,
            "reserved subnets have minimum sizes",
        ),
        spec_rule(
            "gw/basic-no-active-active",
            SendingRequest,
            IntraResource,
            "r",
            "let r:GW in r.sku == 'Basic' => r.active_active == false",
            "Basic sku gateways do not support active-active",
        ),
        spec_rule(
            "gw/active-active-two-ipconfigs",
            SendingRequest,
            IntraResource,
            "r",
            "let r:GW in r.active_active == true => length(r.ip_configuration) >= 2",
            "active-active gateways need two IP configurations",
        ),
        spec_rule(
            "gw/vnet2vnet-needs-peer",
            SendingRequest,
            IntraResource,
            "r",
            "let r:TUNNEL in r.type == 'Vnet2Vnet' => r.peer_virtual_network_gateway_id != null",
            "Vnet2Vnet tunnels need a peer gateway",
        ),
        spec_rule(
            "gw/ipsec-needs-local-gw",
            SendingRequest,
            IntraResource,
            "r",
            "let r:TUNNEL in r.type == 'IPsec' => r.local_network_gateway_id != null",
            "IPsec tunnels need a local network gateway",
        ),
        spec_rule(
            "gw/vnet2vnet-no-ha-gw",
            SendingRequest,
            InterAgg,
            "r2",
            "let r1:TUNNEL, r2:GW in conn(r1.peer_virtual_network_gateway_id -> r2.id) => r2.active_active == false",
            "Vnet2Vnet peer gateways cannot be active-active",
        ),
        spec_rule(
            "nic/single-vm",
            SendingRequest,
            InterAgg,
            "r1",
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => indegree(r2, VM) == 1",
            "a NIC attaches to at most one VM",
        ),
        spec_rule(
            "vm/spot-needs-eviction-policy",
            SendingRequest,
            IntraResource,
            "r",
            "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
            "spot VMs must set an eviction policy",
        ),
        spec_rule(
            "vm/regular-no-eviction-policy",
            SendingRequest,
            IntraResource,
            "r",
            "let r:VM in r.priority == 'Regular' => r.eviction_policy == null",
            "eviction policy applies only to spot VMs",
        ),
        spec_rule(
            "vm/zone-avset-exclusive",
            SendingRequest,
            IntraResource,
            "r",
            "let r:VM in r.zone != null => r.availability_set_id == null",
            "zonal VMs cannot join availability sets",
        ),
        spec_rule(
            "vm/image-needs-source-ref",
            SendingRequest,
            IntraResource,
            "r",
            "let r:VM in r.create_option == 'Image' => r.source_image_reference != null",
            "image-created VMs need a source image reference",
        ),
        spec_rule(
            "disk/vm-same-location",
            SendingRequest,
            InterResource,
            "r3",
            "let r1:ATTACH, r2:VM, r3:DISK in coconn(r1.virtual_machine_id -> r2.id, r1.managed_disk_id -> r3.id) => r2.location == r3.location",
            "a VM and its data disks must share a region",
        ),
        spec_rule(
            "appgw/ip-must-be-standard",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:APPGW, r2:IP in conn(r1.frontend_ip_configuration.public_ip_address_id -> r2.id) => r2.sku == 'Standard'",
            "application gateway frontend IPs must be Standard sku",
        ),
        spec_rule(
            "appgw/subnet-exclusive",
            SendingRequest,
            InterAgg,
            "r1",
            "let r1:APPGW, r2:SUBNET in conn(r1.gateway_ip_configuration.subnet_id -> r2.id) => indegree(r2, !APPGW) == 0",
            "the application gateway subnet is exclusive",
        ),
        spec_rule(
            "appgw/sku-name-tier-match",
            SendingRequest,
            IntraResource,
            "r",
            "let r:APPGW in r.sku.name == 'Standard_v2' => r.sku.tier == 'Standard_v2'",
            "v2 sku names require the matching tier",
        ),
        spec_rule(
            "appgw/waf-requires-waf-tier",
            SendingRequest,
            IntraResource,
            "r",
            "let r:APPGW in r.waf_configuration != null => r.sku.tier == 'WAF_v2'",
            "WAF configuration requires a WAF_v2 tier",
        ),
        spec_rule(
            "appgw/v2-rule-needs-priority",
            SendingRequest,
            IntraResource,
            "r",
            "let r:APPGW in r.sku.name == 'Standard_v2' => r.request_routing_rule.priority != null",
            "v2 routing rules must specify a priority",
        ),
        spec_rule(
            "sa/premium-no-gzrs",
            SendingRequest,
            IntraResource,
            "r",
            "let r:SA in r.account_tier == 'Premium' => r.account_replication_type != 'GZRS'",
            "Premium storage accounts do not support GZRS",
        ),
        spec_rule(
            "sa/premium-no-ragzrs",
            SendingRequest,
            IntraResource,
            "r",
            "let r:SA in r.account_tier == 'Premium' => r.account_replication_type != 'RAGZRS'",
            "Premium storage accounts do not support RA-GZRS",
        ),
        spec_rule(
            "sa/premium-no-grs",
            SendingRequest,
            IntraResource,
            "r",
            "let r:SA in r.account_tier == 'Premium' => r.account_replication_type != 'GRS'",
            "Premium storage accounts do not support GRS",
        ),
        spec_rule(
            "sa/premium-no-ragrs",
            SendingRequest,
            IntraResource,
            "r",
            "let r:SA in r.account_tier == 'Premium' => r.account_replication_type != 'RAGRS'",
            "Premium storage accounts do not support RA-GRS",
        ),
        spec_rule(
            "nat/ip-must-be-standard",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:NATIP, r2:IP in conn(r1.public_ip_address_id -> r2.id) => r2.sku == 'Standard'",
            "NAT gateway public IPs must be Standard sku",
        ),
        spec_rule(
            "lb/ip-sku-match",
            SendingRequest,
            InterResource,
            "r2",
            "let r1:LB, r2:IP in conn(r1.frontend_ip_configuration.public_ip_address_id -> r2.id) => r1.sku == r2.sku",
            "load balancer and frontend IP skus must match",
        ),
        // ---------------------------------------------- polling request ---
        spec_rule(
            "fw/no-subnet-delegation",
            PollingRequest,
            InterResource,
            "r2",
            "let r1:FW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => r2.delegation == null",
            "the firewall subnet cannot use delegation",
        ),
        spec_rule(
            "gw/no-subnet-delegation",
            PollingRequest,
            InterResource,
            "r2",
            "let r1:GW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => r2.delegation == null",
            "the gateway subnet cannot use delegation",
        ),
        spec_rule(
            "gw/policy-based-needs-basic",
            PollingRequest,
            IntraResource,
            "r",
            "let r:GW in r.vpn_type == 'PolicyBased' => r.sku == 'Basic'",
            "policy-based VPN gateways support only the Basic sku",
        ),
        spec_rule(
            "gw/policy-based-single-tunnel",
            PollingRequest,
            InterAgg,
            "r",
            "let r:GW in r.vpn_type == 'PolicyBased' => indegree(r, TUNNEL) <= 1",
            "policy-based gateways support a single tunnel",
        ),
        // --------------------------------------------- post-deploy sync ---
        spec_rule(
            "rt/subnet-single-route-table",
            PostDeploySync,
            InterAgg,
            "r1",
            "let r1:RTASSOC, r2:SUBNET in conn(r1.subnet_id -> r2.id) => indegree(r2, RTASSOC) == 1",
            "a subnet can attach to only one route table",
        ),
        spec_rule(
            "sg/subnet-single-nsg",
            PostDeploySync,
            InterAgg,
            "r1",
            "let r1:SGASSOC, r2:SUBNET in conn(r1.subnet_id -> r2.id) => indegree(r2, SGASSOC) == 1",
            "a subnet can attach to only one security group",
        ),
        spec_rule(
            "rt/duplicate-route-prefix",
            PostDeploySync,
            InterResource,
            "r1",
            "let r1:ROUTE, r2:ROUTE, r3:RT in coconn(r1.route_table_name -> r3.name, r2.route_table_name -> r3.name) => r1.address_prefix != r2.address_prefix",
            "routes in one table silently overwrite on equal prefixes",
        ),
    ];
    let mut rules: Vec<GroundRule> = table.into_iter().flatten().collect();

    // Interpolation rules: VM sku → NIC / data-disk limits, GW sku → tunnel
    // limits, generated from the documentation tables.
    for sku in docs::VM_SKUS {
        rules.extend(spec_rule(
            &format!("vm/max-nics-{}", sku.sku),
            SendingRequest,
            Interpolation,
            "r",
            &format!(
                "let r:VM in r.size == '{}' => outdegree(r, NIC) <= {}",
                sku.sku, sku.max_nics
            ),
            &format!("{} VMs attach at most {} NICs", sku.sku, sku.max_nics),
        ));
        rules.extend(spec_rule(
            &format!("vm/max-data-disks-{}", sku.sku),
            SendingRequest,
            Interpolation,
            "r",
            &format!(
                "let r:VM in r.size == '{}' => indegree(r, ATTACH) <= {}",
                sku.sku, sku.max_data_disks
            ),
            &format!(
                "{} VMs attach at most {} data disks",
                sku.sku, sku.max_data_disks
            ),
        ));
    }
    for sku in docs::GW_SKUS {
        rules.extend(spec_rule(
            &format!("gw/max-tunnels-{}", sku.sku),
            PollingRequest,
            Interpolation,
            "r",
            &format!(
                "let r:GW in r.sku == '{}' => indegree(r, TUNNEL) <= {}",
                sku.sku, sku.max_tunnels
            ),
            &format!(
                "{} gateways support at most {} tunnels",
                sku.sku, sku.max_tunnels
            ),
        ));
        if !sku.active_active {
            rules.extend(spec_rule(
                &format!("gw/no-active-active-{}", sku.sku),
                SendingRequest,
                Interpolation,
                "r",
                &format!(
                    "let r:GW in r.sku == '{}' => r.active_active == false",
                    sku.sku
                ),
                &format!("{} gateways do not support active-active", sku.sku),
            ));
        }
    }

    rules
}

// --------------------------------------------------------------------------
// Custom rule evaluation
// --------------------------------------------------------------------------

fn eval_custom(
    rule: CustomRule,
    meta: &GroundRule,
    graph: &ResourceGraph,
    kb: &KnowledgeBase,
    node: NodeIdx,
    deployed: &HashSet<NodeIdx>,
) -> Vec<Violation> {
    let mk = |fix: NodeIdx, involved: Vec<NodeIdx>, message: String| Violation {
        rule_id: meta.id.clone(),
        involved,
        failing: node,
        fix,
        message,
    };
    match rule {
        CustomRule::Schema => validate_schema(graph, kb, node)
            .into_iter()
            .map(|msg| mk(node, vec![node], msg))
            .collect(),
        CustomRule::DanglingRefs => {
            let r = graph.resource(node);
            r.references()
                .into_iter()
                .filter(|(_, reference)| graph.resolve(reference).is_none())
                .map(|(path, reference)| {
                    mk(
                        node,
                        vec![node],
                        format!("{}.{path} refers to missing {reference}", r.id()),
                    )
                })
                .collect()
        }
        CustomRule::DuplicateNames => {
            let r = graph.resource(node);
            let Some(name) = r.get_attr("name").and_then(Value::as_str) else {
                return Vec::new();
            };
            let scope = name_scope(graph, node);
            deployed
                .iter()
                .filter(|&&other| {
                    let o = graph.resource(other);
                    other != node
                        && o.rtype == r.rtype
                        && o.get_attr("name").and_then(Value::as_str) == Some(name)
                        && name_scope(graph, other) == scope
                })
                .map(|&other| {
                    mk(
                        node,
                        vec![node, other],
                        format!("{} already exists", r.id()),
                    )
                })
                .collect()
        }
        CustomRule::SaNameFormat => {
            let r = graph.resource(node);
            if r.rtype != "azurerm_storage_account" {
                return Vec::new();
            }
            let Some(name) = r.get_attr("name").and_then(Value::as_str) else {
                return Vec::new();
            };
            let ok = (3..=24).contains(&name.len())
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit());
            if ok {
                Vec::new()
            } else {
                vec![mk(
                    node,
                    vec![node],
                    format!("invalid storage account name {name:?}"),
                )]
            }
        }
        CustomRule::ReservedSubnetSize => {
            let r = graph.resource(node);
            if r.rtype != "azurerm_subnet" {
                return Vec::new();
            }
            let Some(name) = r.get_attr("name").and_then(Value::as_str) else {
                return Vec::new();
            };
            let min_prefix = match name {
                "GatewaySubnet" => 29,
                "AzureFirewallSubnet" | "AzureBastionSubnet" => 26,
                _ => return Vec::new(),
            };
            r.get_all("address_prefixes")
                .into_iter()
                .filter_map(Value::as_str)
                .filter_map(|s| s.parse::<Cidr>().ok())
                .filter(|c| c.prefix() > min_prefix)
                .map(|c| {
                    mk(
                        node,
                        vec![node],
                        format!("{name} must be at least /{min_prefix}, got /{}", c.prefix()),
                    )
                })
                .collect()
        }
        CustomRule::UniqueSgRulePriority => {
            let r = graph.resource(node);
            if r.rtype != "azurerm_network_security_group" {
                return Vec::new();
            }
            let Some(Value::List(sg_rules)) = r.get_attr("security_rule") else {
                return Vec::new();
            };
            let mut seen: Vec<(String, i64)> = Vec::new();
            let mut out = Vec::new();
            for rule_val in sg_rules {
                let Some(m) = rule_val.as_map() else { continue };
                let dir = m
                    .get("direction")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                let Some(priority) = m.get("priority").and_then(Value::as_int) else {
                    continue;
                };
                if seen.contains(&(dir.clone(), priority)) {
                    out.push(mk(
                        node,
                        vec![node],
                        format!("duplicate {dir} rule priority {priority}"),
                    ));
                }
                seen.push((dir, priority));
            }
            out
        }
        CustomRule::UniqueLun => {
            let r = graph.resource(node);
            if r.rtype != "azurerm_virtual_machine_data_disk_attachment" {
                return Vec::new();
            }
            let (Some(vm_ref), Some(lun)) = (
                r.get_attr("virtual_machine_id")
                    .and_then(Value::as_ref_value),
                r.get_attr("lun").and_then(Value::as_int),
            ) else {
                return Vec::new();
            };
            deployed
                .iter()
                .filter(|&&other| {
                    if other == node {
                        return false;
                    }
                    let o = graph.resource(other);
                    o.rtype == r.rtype
                        && o.get_attr("virtual_machine_id")
                            .and_then(Value::as_ref_value)
                            == Some(vm_ref)
                        && o.get_attr("lun").and_then(Value::as_int) == Some(lun)
                })
                .map(|&other| {
                    mk(
                        node,
                        vec![node, other],
                        format!("LUN {lun} already in use on {}", vm_ref),
                    )
                })
                .collect()
        }
        CustomRule::VmSkuRegionAvailability => {
            let r = graph.resource(node);
            if r.rtype != "azurerm_linux_virtual_machine" {
                return Vec::new();
            }
            let (Some(size), Some(location)) = (
                r.get_attr("size").and_then(Value::as_str),
                r.get_attr("location").and_then(Value::as_str),
            ) else {
                return Vec::new();
            };
            if docs::vm_sku_available(size, location) {
                Vec::new()
            } else {
                vec![mk(
                    node,
                    vec![node],
                    format!("size {size} is not available in {location}"),
                )]
            }
        }
        CustomRule::PrivateIpInSubnet => {
            let r = graph.resource(node);
            if r.rtype != "azurerm_network_interface" {
                return Vec::new();
            }
            let mut out = Vec::new();
            for ip in r
                .get_all("ip_configuration.private_ip_address")
                .into_iter()
                .filter_map(Value::as_str)
            {
                let Ok(addr) = format!("{ip}/32").parse::<Cidr>() else {
                    out.push(mk(node, vec![node], format!("invalid private IP {ip}")));
                    continue;
                };
                // Find the subnet this NIC references.
                let in_range = graph.out_edges(node).any(|e| {
                    let target = graph.resource(e.dst);
                    if target.rtype != "azurerm_subnet" {
                        return false;
                    }
                    target
                        .get_all("address_prefixes")
                        .into_iter()
                        .filter_map(Value::as_str)
                        .filter_map(|s| s.parse::<Cidr>().ok())
                        .any(|c| c.contains(&addr))
                });
                if !in_range {
                    out.push(mk(
                        node,
                        vec![node],
                        format!("private IP {ip} outside subnet range"),
                    ));
                }
            }
            out
        }
    }
}

/// The naming scope of a resource: Azure names are unique *within a
/// container*, not globally. Subnets are scoped by their virtual network,
/// routes by their route table, peerings by their local VNet, containers by
/// their storage account; everything else shares the program-wide
/// (resource-group) scope.
fn name_scope(graph: &ResourceGraph, node: NodeIdx) -> Option<NodeIdx> {
    let r = graph.resource(node);
    let parent_type = match r.rtype.as_str() {
        "azurerm_subnet" => "azurerm_virtual_network",
        "azurerm_route" => "azurerm_route_table",
        "azurerm_virtual_network_peering" => "azurerm_virtual_network",
        "azurerm_storage_container" => "azurerm_storage_account",
        _ => return None,
    };
    graph
        .out_edges(node)
        .find(|e| graph.resource(e.dst).rtype == parent_type)
        .map(|e| e.dst)
}

/// Class-1/2 schema validation of a single resource.
fn validate_schema(graph: &ResourceGraph, kb: &KnowledgeBase, node: NodeIdx) -> Vec<String> {
    let r = graph.resource(node);
    let Some(schema) = kb.resource(&r.rtype) else {
        // Unattended resource types deploy without schema validation.
        return Vec::new();
    };
    let mut errors = Vec::new();

    // Required attributes. Top-level requirements always apply; nested
    // requirements apply within each present parent block.
    for attr in schema.attrs.values() {
        if attr.kind != AttrKind::Required {
            continue;
        }
        if let Some((parent, child)) = attr.path.rsplit_once('.') {
            // Parent present, child missing in at least one instance?
            let parents = count_instances(r, parent);
            let children = r.get_all(&attr.path).len();
            if parents > 0 && children < parents {
                errors.push(format!(
                    "{}: missing required attribute {child} in a {parent} block",
                    r.id(),
                ));
            }
        } else if r.get_attr(&attr.path).is_none() {
            errors.push(format!(
                "{}: missing required attribute {}",
                r.id(),
                attr.path
            ));
        }
    }

    // Value formats.
    for attr in schema.attrs.values() {
        for v in r.get_all(&attr.path) {
            match (&attr.format, v) {
                (ValueFormat::Enum { values: domain, .. }, Value::Str(s))
                    if !domain.iter().any(|d| d == s) =>
                {
                    errors.push(format!("{}: {} has invalid value {s:?}", r.id(), attr.path));
                }
                (ValueFormat::IntRange { min, max }, Value::Int(n)) if n < min || n > max => {
                    errors.push(format!(
                        "{}: {} = {n} outside [{min}, {max}]",
                        r.id(),
                        attr.path
                    ));
                }
                (ValueFormat::Location, Value::Str(s)) if !kb.locations.iter().any(|l| l == s) => {
                    errors.push(format!("{}: unknown location {s:?}", r.id()));
                }
                (ValueFormat::Cidr, Value::Str(s)) if s.parse::<Cidr>().is_err() => {
                    errors.push(format!("{}: {} is not a CIDR: {s:?}", r.id(), attr.path));
                }
                _ => {}
            }
        }
    }

    // Class-3 endpoint legality: references at declared endpoints must hit
    // the declared target type and attribute.
    for edge in graph.out_edges(node) {
        if let Some(spec) = schema.endpoint(&edge.in_endpoint) {
            let target = graph.resource(edge.dst);
            if target.rtype != spec.target_type || edge.out_attr != spec.target_attr {
                errors.push(format!(
                    "{}: {} must reference {}.{}, got {}.{}",
                    r.id(),
                    edge.in_endpoint,
                    zodiac_kb::short_name(&spec.target_type),
                    spec.target_attr,
                    zodiac_kb::short_name(&target.rtype),
                    edge.out_attr
                ));
            }
        }
    }

    errors
}

/// Number of instances of a (possibly nested, possibly repeated) block path.
fn count_instances(r: &zodiac_model::Resource, path: &str) -> usize {
    let values = r.get_all(path);
    if !values.is_empty() {
        return values.len();
    }
    // `get_all` reads through lists to their leaves, so a path that ends in
    // a list of empty lists reads as nothing; count its elements instead.
    let (head, rest) = path
        .split_once('.')
        .map_or((path, None), |(h, t)| (h, Some(t)));
    r.attrs.get(head).map_or(0, |v| count_in_value(v, rest))
}

fn count_in_value(v: &Value, path: Option<&str>) -> usize {
    let Some(path) = path else {
        return match v {
            Value::List(l) => l.len(),
            Value::Null => 0,
            _ => 1,
        };
    };
    let (head, rest) = path
        .split_once('.')
        .map_or((path, None), |(h, t)| (h, Some(t)));
    match v {
        Value::Map(m) => m.get(head).map_or(0, |inner| count_in_value(inner, rest)),
        Value::List(l) => l
            .iter()
            .map(|inner| count_in_value(inner, Some(path)))
            .sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_parses_and_is_unique() {
        let rules = ground_truth();
        assert!(rules.len() > 60, "only {} rules", rules.len());
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id.as_str()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate rule ids");
    }

    #[test]
    fn every_phase_is_represented() {
        let rules = ground_truth();
        for phase in [
            Phase::PluginCheck,
            Phase::PreDeploySync,
            Phase::SendingRequest,
            Phase::PollingRequest,
            Phase::PostDeploySync,
        ] {
            assert!(
                rules.iter().any(|r| r.phase == phase),
                "no rule in phase {phase}"
            );
        }
    }

    #[test]
    fn request_phase_dominates() {
        // Table 3: ~75% of failures happen at request time; the rule set
        // should be weighted accordingly.
        let rules = ground_truth();
        let request = rules
            .iter()
            .filter(|r| r.phase == Phase::SendingRequest)
            .count();
        assert!(request * 2 > rules.len(), "{request}/{}", rules.len());
    }

    #[test]
    fn categories_cover_all_four() {
        let rules = ground_truth();
        for cat in [
            CheckCategory::IntraResource,
            CheckCategory::InterResource,
            CheckCategory::InterAgg,
            CheckCategory::Interpolation,
        ] {
            assert!(rules.iter().any(|r| r.category == cat), "missing {cat:?}");
        }
    }
}
