module Consensus_mc = Ffault_runtime.Consensus_mc
module Cancel = Ffault_runtime.Cancel

type result = {
  mc : Consensus_mc.result;
  stalls : int;
  watched : bool;
}

let execute ?watchdog_stall_s ?cancel (cfg : Consensus_mc.config) =
  match watchdog_stall_s with
  | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
      invalid_arg "Mc.execute: watchdog_stall_s must be finite and positive"
  | None -> { mc = Consensus_mc.execute ?cancel cfg; stalls = 0; watched = false }
  | Some stall_s ->
      let n = cfg.Consensus_mc.n_domains in
      let token =
        match cancel, cfg.Consensus_mc.deadline_s with
        | Some c, _ -> c
        | None, Some s -> Cancel.after ~seconds:s
        | None, None -> Cancel.create ()
      in
      let hb = Heartbeat.create ~slots:n () in
      let wd = Watchdog.create ~heartbeat:hb ~stall_ns:(int_of_float (stall_s *. 1e9)) () in
      (* one shared token: a wedged domain dooms the whole trial, so
         every slot's flag cancels the same thing (first reason wins) *)
      for slot = 0 to n - 1 do
        Watchdog.attach wd ~slot token
      done;
      let beat me = Heartbeat.beat hb ~slot:me in
      let cfg =
        {
          cfg with
          Consensus_mc.on_progress =
            (match cfg.Consensus_mc.on_progress with
            | None -> Some beat
            | Some f ->
                Some
                  (fun me ->
                    beat me;
                    f me));
        }
      in
      let handle = Watchdog.start ~interval_s:(Float.min 0.05 (stall_s /. 4.0)) wd in
      let mc =
        match Consensus_mc.execute ~cancel:token cfg with
        | mc -> mc
        | exception e ->
            Watchdog.stop handle;
            raise e
      in
      Watchdog.stop handle;
      let stalls = ref 0 in
      for slot = 0 to n - 1 do
        if Watchdog.flagged wd ~slot then incr stalls
      done;
      { mc; stalls = !stalls; watched = true }
