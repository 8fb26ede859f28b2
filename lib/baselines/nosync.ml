type ctx = Monitor_ops.t

let name = "nosync"
let create_with ?events _runtime = Monitor_ops.create ?events ()
let create runtime = create_with runtime
let stats (ctx : ctx) = ctx.stats

(* The events a monitor would emit, with nothing behind them: the
   oracle sees the exclusion this scheme does not provide. *)
let acquire (ctx : ctx) env obj =
  if ctx.tracing then Monitor_ops.emit ctx env Tl_events.Event.Acquire_fat obj
  else ignore (Sys.opaque_identity obj)

let release (ctx : ctx) env obj =
  if ctx.tracing then Monitor_ops.emit ctx env Tl_events.Event.Release_fat obj
  else ignore (Sys.opaque_identity obj)

let wait ?timeout (ctx : ctx) env obj =
  ignore timeout;
  if ctx.tracing then Monitor_ops.emit ctx env Tl_events.Event.Wait_op obj

let notify (ctx : ctx) env obj =
  if ctx.tracing then Monitor_ops.emit ctx env Tl_events.Event.Notify_op obj

let notify_all (ctx : ctx) env obj =
  if ctx.tracing then Monitor_ops.emit ctx env Tl_events.Event.Notify_all_op obj

let holds _ctx _env _obj = true
