#!/usr/bin/env bash
# assert_benchtab.sh SUITE REPORT.json
#
# Shared jq assertions over a `benchtab -json` report, used by the CI
# smoke matrix (one suite per matrix cell) and runnable locally:
#
#   go run ./cmd/benchtab ... -json > report.json
#   ci/assert_benchtab.sh dmi report.json
#
# Suites:
#   base       — obs counters present on every run; scheme-specific
#                counters on the right schemes; GDB-scheme clients
#                in no-ack mode after the handshake; GDB-Kernel
#                round trips are its transfers plus set-up; each
#                kernel scheme (GDB-Kernel, Driver-Kernel) runs at
#                most a quarter of the clock's edge count in cycles
#   percpu     — per-CPU driver counters present, non-zero, and
#                reconciling with the aggregates (needs -cpus 2)
#   transports — per-transport counters for every swept backend
#                (set TRANSPORTS, default "tcp ring pipe")
#   dmi        — DMI ablation: hits iff granted, message
#                reduction, per-CPU reconciliation, identical
#                functional outcome across cells
set -euo pipefail

suite=${1:?usage: assert_benchtab.sh SUITE REPORT.json}
report=${2:?usage: assert_benchtab.sh SUITE REPORT.json}

fail() {
  echo "assert_benchtab[$suite]: $*" >&2
  exit 1
}

# jqe EXPR MESSAGE — assert that EXPR evaluates truthy over the report.
jqe() {
  jq -e "$1" "$report" > /dev/null || fail "$2"
}

case $suite in
base)
  jqe '.runs | length > 0' "report has no runs"
  for key in iss.instructions iss.cycles iss.decode_cache_hits \
    iss.decode_cache_misses iss.decode_cache_invalidations \
    sim.cycles sim.activations sim.delta_cycles; do
    jqe "[.runs[].counters | has(\"$key\")] | all" \
      "counter $key missing from a run snapshot"
  done
  jqe '[.runs[].counters["iss.decode_cache_hits"]] | add > 0' \
    "iss.decode_cache_hits is zero across all runs"
  jqe '[.runs[] | select(.scheme == "Driver-Kernel")]
       | length > 0 and ([.[].counters | has("driver.messages")] | all)' \
    "driver.messages missing from Driver-Kernel snapshots"
  jqe '[.runs[] | select(.scheme != "Driver-Kernel")]
       | length > 0 and ([.[].counters | has("rsp.round_trips")] | all)' \
    "rsp.round_trips missing from GDB-scheme snapshots"
  # No-ack mode: each CPU's client acks only the OK of its
  # QStartNoAckMode handshake, so more acks mean a silent fall-back.
  jqe '[.runs[] | select(.scheme != "Driver-Kernel")
        | (.counters["rsp.acks_sent"] | type == "number")
          and .counters["rsp.acks_sent"] <= (.cpus // 1)]
       | all' \
    "a GDB-scheme run sent acks beyond its no-ack handshake (rsp.acks_sent)"
  # Stop replies expedite the PC and cycle counter, so a GDB-Kernel
  # stop costs no transaction: past each CPU's set-up (the handshake
  # and one Z packet per binding, 3 for the router guest) every round
  # trip is a variable transfer.
  jqe '[.runs[] | select(.scheme == "GDB-Kernel")
        | (.counters["rsp.round_trips"]
           - (.counters["cosim.transfers_to_sc"] // 0)
           - (.counters["cosim.transfers_to_iss"] // 0)) as $setup
        | $setup >= 0 and $setup <= 4 * (.cpus // 1)]
       | length > 0 and all' \
    "a GDB-Kernel run spent round trips beyond its transfers and set-up (rsp.round_trips)"
  # The kernel schemes have neither a clock nor a poll grid: they visit
  # only the time points where something happens (GDB-Kernel: a stop's
  # service or the traffic; Driver-Kernel: the traffic and the times
  # its guests send). A clock or a grid would visit every edge
  # of the 100 ns clock benchtab runs (2 * simulated time / period);
  # allow a quarter.
  for scheme in GDB-Kernel Driver-Kernel; do
    jqe "[.runs[] | select(.scheme == \"$scheme\")
          | .counters[\"sim.cycles\"] * 4 <= 2 * .simulated_ps / 100000]
         | length > 0 and all" \
      "a $scheme run visits more than a quarter of the clock edges (sim.cycles): is a clock or poll grid back?"
  done
  ;;

percpu)
  jqe '.runs | length > 0 and ([.[].cpus == 2] | all)' \
    "report missing runs or not a 2-CPU sweep"
  for key in driver.cpu0.messages driver.cpu1.messages \
    driver.cpu0.interrupts driver.cpu1.interrupts; do
    jqe "[.runs[].counters | has(\"$key\")] | all" \
      "per-CPU counter $key missing from a run snapshot"
  done
  for key in driver.cpu0.messages driver.cpu1.messages; do
    jqe "[.runs[].counters[\"$key\"]] | add > 0" \
      "per-CPU counter $key is zero across all runs"
  done
  jqe '[.runs[].counters
        | .["driver.messages"] == .["driver.cpu0.messages"] + .["driver.cpu1.messages"]]
       | all' \
    "aggregate driver.messages does not equal the per-CPU sum"
  ;;

transports)
  want=${TRANSPORTS:-tcp ring pipe}
  jqe '.runs | length > 0' "report has no runs"
  # shellcheck disable=SC2086  # word splitting over the transport list is the point
  for tr in $want; do
    jqe "[.runs[] | select(.transport == \"$tr\")] | length > 0" \
      "no runs recorded for transport $tr"
    for suffix in pairs tx_bytes rx_bytes; do
      jqe "[.runs[] | select(.transport == \"$tr\")
            | .counters[\"transport.$tr.$suffix\"] > 0] | all" \
        "counter transport.$tr.$suffix missing or zero for transport $tr"
    done
  done
  ;;

dmi)
  # Two cells: DMI off and on.
  jqe '.runs | length == 2' "ablation sweep did not produce two cells"
  # Windows actually serve traffic when granted...
  jqe '[.runs[] | select(.dmi)]
       | length > 0 and ([.[].counters["driver.dmi_hits"] > 0] | all)' \
    "dmi cells recorded no window hits"
  # ...never when not granted...
  jqe '[.runs[] | select(.dmi | not) | .counters["driver.dmi_hits"] == 0] | all' \
    "non-dmi cells recorded window hits"
  # ...and they take messages off the wire.
  jqe '([.runs[] | select(.dmi)       | .counters["driver.messages"]] | add) <
       ([.runs[] | select(.dmi | not) | .counters["driver.messages"]] | add)' \
    "dmi cells did not reduce driver.messages"
  # Per-CPU DMI counters reconcile with the aggregates.
  for metric in dmi_hits dmi_misses dmi_revocations; do
    jqe "[.runs[].counters
          | .[\"driver.$metric\"] == .[\"driver.cpu0.$metric\"] + .[\"driver.cpu1.$metric\"]]
         | all" \
      "aggregate driver.$metric does not equal the per-CPU sum"
  done
  # Every cell agrees on the functional outcome.
  jqe '[.runs[].forwarded] | unique | length == 1' \
    "ablation cells disagree on forwarded packets"
  ;;

*)
  fail "unknown suite (want base, percpu, transports, dmi)"
  ;;
esac

echo "assert_benchtab[$suite]: ok ($report)"
