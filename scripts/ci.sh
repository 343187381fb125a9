#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked
cargo test -q --locked
cargo fmt --check
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Bench smoke-run: each Criterion harness executes one untimed iteration
# when invoked without `--bench`, catching bit-rot in bench-only code.
cargo test --benches -q --locked

# Scale smoke: shard-parallel mining must stay shard-invariant — a
# 10k-project mine with every core must print the same check_set_hash as a
# 1-shard run, over a materialised corpus and over a stream. Timing is the
# benchmark's job (perfbench), not this check's.
for mode in "" --stream; do
  scale_one=$(./target/release/scale_smoke --projects 10000 $mode)
  scale_all=$(./target/release/scale_smoke --projects 10000 $mode --shards "$(nproc)")
  echo "$scale_one"; echo "$scale_all"
  h1=$(echo "$scale_one" | sed -n 's/.*"check_set_hash":"\([0-9a-f]*\)".*/\1/p')
  h2=$(echo "$scale_all" | sed -n 's/.*"check_set_hash":"\([0-9a-f]*\)".*/\1/p')
  [ -n "$h1" ] && [ "$h1" = "$h2" ] \
    || { echo "scale smoke: sharded check set diverges from 1-shard ($mode: $h1 vs $h2)"; exit 1; }
done

# Regression seed files must exist and must be tracked — a gitignored seed
# file silently un-pins every replayed failure.
regressions=$(find crates -path '*proptest-regressions*' -type f)
test -n "$regressions" || { echo "no proptest-regressions seed files found"; exit 1; }
for f in $regressions; do
  if git check-ignore -q "$f"; then
    echo "regression seed file is gitignored: $f"
    exit 1
  fi
done

# Fuzz smoke: the differential fuzzer must pass and its report must be a
# pure function of the seed (byte-identical stdout across two runs). The
# 256-case run also exercises the repair properties (6–8: soundness,
# minimality, intent preservation).
fuzz_a=$(mktemp) fuzz_b=$(mktemp) repair_dir=$(mktemp -d)
trap 'rm -f "$fuzz_a" "$fuzz_b"; rm -rf "$repair_dir"' EXIT
./target/release/zodiac fuzz --seed 0xC0FFEE --cases 256 > "$fuzz_a"
./target/release/zodiac fuzz --seed 0xC0FFEE --cases 256 > "$fuzz_b"
diff "$fuzz_a" "$fuzz_b" || { echo "fuzz report is nondeterministic"; exit 1; }

# Repair smoke: a Spot VM without an eviction policy must be repaired
# through all three oracle layers, and a deceptive candidate (delete the
# violating VM) must be rejected at L3 — with both verdicts reconstructable
# from the provenance trace via `zodiac explain`.
cat > "$repair_dir/checks.txt" <<'EOF'
let r:VM in r.priority == 'Spot' => r.eviction_policy != null
EOF
cat > "$repair_dir/original.tf" <<'EOF'
resource "azurerm_resource_group" "rg" {
  name     = "rg1"
  location = "eastus"
}

resource "azurerm_virtual_network" "vnet" {
  name                = "vnet1"
  location            = "eastus"
  resource_group_name = azurerm_resource_group.rg.name
  address_space       = ["10.0.0.0/16"]
}

resource "azurerm_subnet" "s" {
  name                 = "internal"
  resource_group_name  = azurerm_resource_group.rg.name
  virtual_network_name = azurerm_virtual_network.vnet.name
  address_prefixes     = ["10.0.1.0/24"]
}

resource "azurerm_network_interface" "nic" {
  name                = "nic1"
  location            = "eastus"
  resource_group_name = azurerm_resource_group.rg.name
  ip_configuration {
    name                          = "ipcfg"
    subnet_id                     = azurerm_subnet.s.id
    private_ip_address_allocation = "Dynamic"
  }
}

resource "azurerm_linux_virtual_machine" "vm" {
  name                  = "vm1"
  location              = "eastus"
  size                  = "Standard_B1s"
  admin_username        = "azureuser"
  admin_password        = "Sup3rSecret!"
  resource_group_name   = azurerm_resource_group.rg.name
  network_interface_ids = [azurerm_network_interface.nic.id]
  priority              = "Spot"
  os_disk {
    caching              = "ReadWrite"
    storage_account_type = "Standard_LRS"
  }
  source_image_reference {
    publisher = "Canonical"
    offer     = "ubuntu"
    sku       = "22_04-lts"
    version   = "latest"
  }
}
EOF
# The deceptive "fix": the original with the violating VM deleted.
sed '/^resource "azurerm_linux_virtual_machine" "vm" {$/,$d' \
  "$repair_dir/original.tf" > "$repair_dir/deceptive.tf"

./target/release/zodiac repair "$repair_dir/original.tf" \
  --checks "$repair_dir/checks.txt" --explain \
  --trace-out "$repair_dir/accept.jsonl" > "$repair_dir/accept.out"
grep -q "repaired — " "$repair_dir/accept.out" \
  || { echo "repair smoke: expected an accepted repair"; cat "$repair_dir/accept.out"; exit 1; }
fp=$(sed -n 's/.*\[repair \([0-9a-f]\{16\}\)\].*/\1/p' "$repair_dir/accept.out" | head -1)
./target/release/zodiac explain "$fp" --trace "$repair_dir/accept.jsonl" \
  | grep -q "repair accepted" \
  || { echo "repair smoke: explain cannot reconstruct the accepted verdict"; exit 1; }

if ./target/release/zodiac repair "$repair_dir/original.tf" \
  --candidate "$repair_dir/deceptive.tf" \
  --checks "$repair_dir/checks.txt" --explain \
  --trace-out "$repair_dir/reject.jsonl" > "$repair_dir/reject.out"; then
  echo "repair smoke: the deceptive candidate must be rejected"; exit 1
fi
grep -q "rejected at L3" "$repair_dir/reject.out" \
  || { echo "repair smoke: expected an L3 rejection"; cat "$repair_dir/reject.out"; exit 1; }
fp=$(sed -n 's/.*\[repair \([0-9a-f]\{16\}\)\].*/\1/p' "$repair_dir/reject.out" | head -1)
./target/release/zodiac explain "$fp" --trace "$repair_dir/reject.jsonl" \
  | grep -q "repair rejected at L3" \
  || { echo "repair smoke: explain cannot reconstruct the L3 rejection"; exit 1; }

# Coverage floor (only where cargo-llvm-cov is installed; the coverage CI
# job installs it, local runs without it skip gracefully).
if command -v cargo-llvm-cov >/dev/null 2>&1; then
  scripts/coverage.sh
else
  echo "cargo-llvm-cov not installed; skipping coverage floor"
fi
