//! Misconfiguration injection.
//!
//! Each injector mutates a generated program so that it violates exactly one
//! ground-truth rule, modelling the buggy repositories Zodiac finds in the
//! wild (§5.5) and giving the statistical filters counter-examples to chew
//! on. Injection is best-effort: an injector that finds no applicable
//! resource returns `false` and the next one is tried.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use zodiac_model::{AttrPath, Program, Value};

/// The names of all noise kinds, for reporting.
pub const NOISE_KINDS: &[&str] = &[
    "vm-nic-location-mismatch",
    "subnet-outside-vnet",
    "sibling-subnet-overlap",
    "premium-gzrs",
    "spot-without-eviction",
    "standard-ip-dynamic",
    "appgw-basic-ip",
    "gw-wrong-subnet-name",
    "nic-in-gateway-subnet",
    "basic-gw-active-active",
    "os-data-disk-name-clash",
    "missing-address-space",
    "invalid-enum-typo",
    "peering-cidr-overlap",
    "tunnel-vpc-overlap",
    "v2-rule-no-priority",
];

/// Injects one applicable misconfiguration, returning its kind.
pub fn inject(rng: &mut StdRng, program: &mut Program) -> Option<&'static str> {
    let mut order: Vec<&'static str> = NOISE_KINDS.to_vec();
    order.shuffle(rng);
    order
        .into_iter()
        .find(|kind| inject_kind(rng, program, kind))
}

/// Applies a *specific* injector, returning whether it took effect.
pub fn inject_kind(rng: &mut StdRng, program: &mut Program, kind: &str) -> bool {
    {
        match kind {
            "vm-nic-location-mismatch" => vm_nic_location(rng, program),
            "subnet-outside-vnet" => subnet_outside_vnet(program),
            "sibling-subnet-overlap" => sibling_overlap(program),
            "premium-gzrs" => premium_gzrs(program),
            "spot-without-eviction" => spot_without_eviction(program),
            "standard-ip-dynamic" => standard_ip_dynamic(program),
            "appgw-basic-ip" => appgw_basic_ip(program),
            "gw-wrong-subnet-name" => gw_wrong_subnet(program),
            "nic-in-gateway-subnet" => nic_in_gateway_subnet(program),
            "basic-gw-active-active" => basic_gw_active_active(program),
            "os-data-disk-name-clash" => disk_name_clash(program),
            "missing-address-space" => missing_address_space(program),
            "invalid-enum-typo" => invalid_enum(program),
            "peering-cidr-overlap" => peering_overlap(program),
            "tunnel-vpc-overlap" => tunnel_overlap(program),
            "v2-rule-no-priority" => v2_no_priority(program),
            _ => false,
        }
    }
}

fn first_of<'a>(program: &'a mut Program, rtype: &str) -> Option<&'a mut zodiac_model::Resource> {
    program
        .resources_mut()
        .iter_mut()
        .find(|r| r.rtype == rtype)
}

fn vm_nic_location(rng: &mut StdRng, program: &mut Program) -> bool {
    // Move a NIC referenced by a VM to a different region.
    let nic_name = program
        .of_type("azurerm_linux_virtual_machine")
        .flat_map(|vm| vm.references())
        .find(|(_, r)| r.rtype == "azurerm_network_interface")
        .map(|(_, r)| r.name.clone());
    let Some(nic_name) = nic_name else {
        return false;
    };
    let Some(nic) = program.find_mut(&zodiac_model::ResourceId::new(
        "azurerm_network_interface",
        &nic_name,
    )) else {
        return false;
    };
    let current = nic
        .get_attr("location")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let other: Vec<&str> = ["westus", "northeurope", "japaneast"]
        .into_iter()
        .filter(|l| *l != current)
        .collect();
    let pick = other[rng.gen_range(0..other.len())];
    nic.attrs.insert("location".into(), Value::s(pick));
    true
}

fn subnet_outside_vnet(program: &mut Program) -> bool {
    let Some(subnet) = program.resources_mut().iter_mut().find(|r| {
        r.rtype == "azurerm_subnet"
            && r.get_attr("name").and_then(Value::as_str) != Some("GatewaySubnet")
    }) else {
        return false;
    };
    subnet.attrs.insert(
        "address_prefixes".into(),
        Value::List(vec![Value::s("192.168.77.0/24")]),
    );
    true
}

fn sibling_overlap(program: &mut Program) -> bool {
    // Find two subnets of the same VNet and give the second the first's CIDR.
    let mut by_vnet: Vec<(String, usize)> = Vec::new();
    for (i, r) in program.resources().iter().enumerate() {
        if r.rtype != "azurerm_subnet" {
            continue;
        }
        let Some(vn) = r
            .references()
            .into_iter()
            .find(|(_, rf)| rf.rtype == "azurerm_virtual_network")
        else {
            continue;
        };
        by_vnet.push((vn.1.name.clone(), i));
    }
    for w in by_vnet.windows(2) {
        if w[0].0 == w[1].0 {
            let prefix = program.resources()[w[0].1]
                .get_attr("address_prefixes")
                .cloned();
            if let Some(p) = prefix {
                program.resources_mut()[w[1].1]
                    .attrs
                    .insert("address_prefixes".into(), p);
                return true;
            }
        }
    }
    false
}

fn premium_gzrs(program: &mut Program) -> bool {
    let Some(sa) = first_of(program, "azurerm_storage_account") else {
        return false;
    };
    sa.attrs.insert("account_tier".into(), Value::s("Premium"));
    sa.attrs
        .insert("account_replication_type".into(), Value::s("GZRS"));
    true
}

fn spot_without_eviction(program: &mut Program) -> bool {
    let Some(vm) = first_of(program, "azurerm_linux_virtual_machine") else {
        return false;
    };
    vm.attrs.insert("priority".into(), Value::s("Spot"));
    vm.attrs.remove("eviction_policy");
    true
}

fn standard_ip_dynamic(program: &mut Program) -> bool {
    let Some(ip) = program.resources_mut().iter_mut().find(|r| {
        r.rtype == "azurerm_public_ip"
            && r.get_attr("sku").and_then(Value::as_str) != Some("Standard")
    }) else {
        return false;
    };
    ip.attrs.insert("sku".into(), Value::s("Standard"));
    ip.attrs
        .insert("allocation_method".into(), Value::s("Dynamic"));
    true
}

fn appgw_basic_ip(program: &mut Program) -> bool {
    // The documentation-example bug (§5.5): the APPGW frontend IP demoted to
    // Basic/Dynamic.
    let ip_name = program
        .of_type("azurerm_application_gateway")
        .flat_map(|g| g.references())
        .find(|(path, r)| r.rtype == "azurerm_public_ip" && path.to_string().contains("frontend"))
        .map(|(_, r)| r.name.clone());
    let Some(ip_name) = ip_name else { return false };
    let Some(ip) = program.find_mut(&zodiac_model::ResourceId::new(
        "azurerm_public_ip",
        &ip_name,
    )) else {
        return false;
    };
    ip.attrs.insert("sku".into(), Value::s("Basic"));
    ip.attrs
        .insert("allocation_method".into(), Value::s("Dynamic"));
    true
}

fn gw_wrong_subnet(program: &mut Program) -> bool {
    // Rename the GatewaySubnet used by a gateway to an ordinary name.
    let has_gw = program.of_type("azurerm_virtual_network_gateway").count() > 0;
    if !has_gw {
        return false;
    }
    let Some(subnet) = program.resources_mut().iter_mut().find(|r| {
        r.rtype == "azurerm_subnet"
            && r.get_attr("name").and_then(Value::as_str) == Some("GatewaySubnet")
    }) else {
        return false;
    };
    subnet.attrs.insert("name".into(), Value::s("gateway-snet"));
    true
}

fn nic_in_gateway_subnet(program: &mut Program) -> bool {
    // Point an existing NIC into the GatewaySubnet.
    let gw_subnet = program
        .resources()
        .iter()
        .find(|r| {
            r.rtype == "azurerm_subnet"
                && r.get_attr("name").and_then(Value::as_str) == Some("GatewaySubnet")
        })
        .map(|r| r.name.clone());
    let Some(gw_subnet) = gw_subnet else {
        return false;
    };
    let Some(nic) = first_of(program, "azurerm_network_interface") else {
        return false;
    };
    let Ok(path) = "ip_configuration.subnet_id".parse::<AttrPath>() else {
        return false;
    };
    nic.set(&path, Value::r("azurerm_subnet", &gw_subnet, "id"));
    true
}

fn basic_gw_active_active(program: &mut Program) -> bool {
    let Some(gw) = first_of(program, "azurerm_virtual_network_gateway") else {
        return false;
    };
    gw.attrs.insert("sku".into(), Value::s("Basic"));
    gw.attrs.insert("active_active".into(), Value::Bool(true));
    true
}

fn disk_name_clash(program: &mut Program) -> bool {
    // Give a data disk the same name as its VM's os_disk.
    let vm_and_disk = program
        .of_type("azurerm_virtual_machine_data_disk_attachment")
        .find_map(|a| {
            let vm = a
                .references()
                .into_iter()
                .find(|(_, r)| r.rtype == "azurerm_linux_virtual_machine")?;
            let disk = a
                .references()
                .into_iter()
                .find(|(_, r)| r.rtype == "azurerm_managed_disk")?;
            Some((vm.1.name.clone(), disk.1.name.clone()))
        });
    let Some((vm_name, disk_name)) = vm_and_disk else {
        return false;
    };
    let os_name = program
        .find(&zodiac_model::ResourceId::new(
            "azurerm_linux_virtual_machine",
            &vm_name,
        ))
        .and_then(|vm| vm.get("os_disk.name").cloned());
    let Some(os_name) = os_name else { return false };
    let Some(disk) = program.find_mut(&zodiac_model::ResourceId::new(
        "azurerm_managed_disk",
        &disk_name,
    )) else {
        return false;
    };
    disk.attrs.insert("name".into(), os_name);
    true
}

fn missing_address_space(program: &mut Program) -> bool {
    let Some(vnet) = first_of(program, "azurerm_virtual_network") else {
        return false;
    };
    vnet.attrs.remove("address_space").is_some()
}

fn invalid_enum(program: &mut Program) -> bool {
    let Some(ip) = first_of(program, "azurerm_public_ip") else {
        return false;
    };
    ip.attrs
        .insert("allocation_method".into(), Value::s("dynamic"));
    true
}

fn peering_overlap(program: &mut Program) -> bool {
    // Make two peered VNets share an address space (moving the remote VNet's
    // subnets along, so the only violation is the peering itself).
    let peering = program
        .of_type("azurerm_virtual_network_peering")
        .find_map(|p| {
            let refs = p.references();
            let local = refs
                .iter()
                .find(|(path, _)| path.to_string() == "virtual_network_name")?
                .1
                .name
                .clone();
            let remote = refs
                .iter()
                .find(|(path, _)| path.to_string() == "remote_virtual_network_id")?
                .1
                .name
                .clone();
            Some((local, remote))
        });
    let Some((local, remote)) = peering else {
        return false;
    };
    move_vnet_onto(program, &remote, &local)
}

fn tunnel_overlap(program: &mut Program) -> bool {
    // Give the two VNets behind a Vnet2Vnet tunnel overlapping spaces. The
    // tunnel deploys last (gateways are slow), so everything else lands
    // first — the worst-case blast radius the paper's §5.1 example walks
    // through.
    let gws: Vec<String> = program
        .of_type("azurerm_virtual_network_gateway_connection")
        .filter(|t| t.get_attr("type").and_then(Value::as_str) == Some("Vnet2Vnet"))
        .flat_map(|t| t.references())
        .filter(|(_, r)| r.rtype == "azurerm_virtual_network_gateway")
        .map(|(_, r)| r.name.clone())
        .collect();
    if gws.len() < 2 {
        return false;
    }
    // Resolve each gateway's VNet through its GatewaySubnet.
    let vnet_of = |program: &Program, gw: &str| -> Option<String> {
        let gw_res = program.find(&zodiac_model::ResourceId::new(
            "azurerm_virtual_network_gateway",
            gw,
        ))?;
        let subnet = gw_res
            .references()
            .into_iter()
            .find(|(_, r)| r.rtype == "azurerm_subnet")?
            .1
            .name;
        let subnet_res = program.find(&zodiac_model::ResourceId::new("azurerm_subnet", &subnet))?;
        Some(
            subnet_res
                .references()
                .into_iter()
                .find(|(_, r)| r.rtype == "azurerm_virtual_network")?
                .1
                .name,
        )
    };
    let (Some(v1), Some(v2)) = (vnet_of(program, &gws[0]), vnet_of(program, &gws[1])) else {
        return false;
    };
    if v1 == v2 {
        return false;
    }
    move_vnet_onto(program, &v2, &v1)
}

/// Rewrites `vnet`'s address space to equal `onto`'s, relocating every
/// subnet of `vnet` into the new space (same third/fourth octet layout).
fn move_vnet_onto(program: &mut Program, vnet: &str, onto: &str) -> bool {
    let space = program
        .find(&zodiac_model::ResourceId::new(
            "azurerm_virtual_network",
            onto,
        ))
        .and_then(|v| v.get_attr("address_space").cloned());
    let Some(space) = space else { return false };
    let new_octet = space
        .as_list()
        .and_then(|l| l.first())
        .and_then(Value::as_str)
        .and_then(|s| s.split('.').nth(1).map(str::to_string));
    let Some(new_octet) = new_octet else {
        return false;
    };
    let Some(vnet_res) = program.find_mut(&zodiac_model::ResourceId::new(
        "azurerm_virtual_network",
        vnet,
    )) else {
        return false;
    };
    vnet_res.attrs.insert("address_space".into(), space);
    // Relocate the VNet's subnets.
    let subnet_names: Vec<String> = program
        .of_type("azurerm_subnet")
        .filter(|s| {
            s.references()
                .iter()
                .any(|(_, r)| r.rtype == "azurerm_virtual_network" && r.name == vnet)
        })
        .map(|s| s.name.clone())
        .collect();
    for name in subnet_names {
        let Some(subnet) =
            program.find_mut(&zodiac_model::ResourceId::new("azurerm_subnet", &name))
        else {
            continue;
        };
        let Some(Value::List(prefixes)) = subnet.attrs.get("address_prefixes").cloned() else {
            continue;
        };
        let moved: Vec<Value> = prefixes
            .iter()
            .map(|p| match p.as_str() {
                Some(cidr) => {
                    let parts: Vec<&str> = cidr.split('.').collect();
                    if parts.len() == 4 {
                        Value::s(format!(
                            "{}.{}.{}.{}",
                            parts[0], new_octet, parts[2], parts[3]
                        ))
                    } else {
                        p.clone()
                    }
                }
                None => p.clone(),
            })
            .collect();
        subnet
            .attrs
            .insert("address_prefixes".into(), Value::List(moved));
    }
    true
}

fn v2_no_priority(program: &mut Program) -> bool {
    let Some(appgw) = program.resources_mut().iter_mut().find(|r| {
        r.rtype == "azurerm_application_gateway"
            && r.get("sku.name").and_then(Value::as_str) == Some("Standard_v2")
    }) else {
        return false;
    };
    let Some(Value::Map(rule)) = appgw.attrs.get_mut("request_routing_rule") else {
        return false;
    };
    rule.remove("priority").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn injectors_apply_when_possible() {
        // Build a program with a VM+NIC and verify location noise applies.
        let mut p = Program::new()
            .with(
                zodiac_model::Resource::new("azurerm_network_interface", "nic")
                    .with("location", "eastus"),
            )
            .with(
                zodiac_model::Resource::new("azurerm_linux_virtual_machine", "vm")
                    .with("location", "eastus")
                    .with(
                        "network_interface_ids",
                        Value::List(vec![Value::r("azurerm_network_interface", "nic", "id")]),
                    ),
            );
        let mut rng = StdRng::seed_from_u64(1);
        assert!(vm_nic_location(&mut rng, &mut p));
        let nic = p
            .find(&zodiac_model::ResourceId::new(
                "azurerm_network_interface",
                "nic",
            ))
            .unwrap();
        assert_ne!(nic.get_attr("location"), Some(&Value::s("eastus")));
    }

    #[test]
    fn injectors_fail_gracefully() {
        let mut p = Program::new();
        assert!(!premium_gzrs(&mut p));
        assert!(!spot_without_eviction(&mut p));
        assert!(!gw_wrong_subnet(&mut p));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(inject(&mut rng, &mut p), None);
    }
}
