(* Every metric the harness emits, with its unit and direction. The
   end-to-end metrics are what a user of ffault sees from one workload
   run; the per-layer metrics come from the traced run and say why an
   end-to-end number moved. BENCHMARK.json lists the same names (a test
   holds the two in step), and README.md maps each layer metric to the
   end-to-end metric and workload it should move. Layer names use the
   telemetry prefix of the module they measure, so a bench regression
   can be looked up in a campaign's own trace. *)

type better = Higher | Lower

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

let end_to_end =
  [
    m "trials_per_s" "trials/s" Higher;
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MiB" Lower;
  ]

let per_layer =
  [
    m "sim.steps_per_trial" "count" Lower;
    m "sim.ns_per_step" "ns" Lower;
    m "sim.minor_words_per_step" "words" Lower;
    m "check.us_per_trial" "us" Lower;
    m "campaign.trial_us_p50" "us" Lower;
    m "campaign.trial_us_p99" "us" Lower;
    m "shrink.witnesses" "count" Lower;
    m "shrink.ms_per_witness" "ms" Lower;
    m "shrink.iterations_per_witness" "count" Lower;
    m "journal.bytes_per_trial" "B" Lower;
    m "journal.encode_us" "us" Lower;
    m "journal.append_us" "us" Lower;
    m "journal.share" "fraction" Lower;
    m "runner.spawn_join_ms" "ms" Lower;
    m "runner.busy_share" "fraction" Higher;
    m "runner.consume_share" "fraction" Lower;
    m "gc.minor_collections_per_ktrial" "count" Lower;
    m "codec.result_encode_us" "us" Lower;
    m "codec.result_decode_us" "us" Lower;
    m "wire.bytes_per_trial" "B" Lower;
    m "transport.send_us" "us" Lower;
    m "core.lease_roundtrip_us" "us" Lower;
    m "core.result_us" "us" Lower;
    m "dist.tail_s" "s" Lower;
    m "dist.leases_granted" "count" Lower;
    m "netsim.events_per_schedule" "count" Lower;
    m "netsim.us_per_event" "us" Lower;
    m "netsim.schedule_ms_p99" "ms" Lower;
    m "trace.overhead_pct" "%" Lower;
  ]

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
let better_to_string = function Higher -> "higher" | Lower -> "lower"

let better_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None
