(** Plain-text rendering of tables and bar charts.

    The benchmark harness prints each paper table as an aligned text
    table and each figure as a horizontal bar chart, so runs are
    legible in a terminal and diffable across runs. *)

type align = Left | Right

val render :
  ?title:string -> header:string list -> align:align list -> string list list -> string
(** [render ~header ~align rows] lays the rows out in columns sized to
    the widest cell.  [align] gives per-column alignment and must have
    the same length as [header]; rows shorter than the header are
    right-padded with empty cells. *)

val bar_chart :
  ?title:string ->
  ?width:int ->
  ?unit_label:string ->
  (string * float) list ->
  string
(** [bar_chart items] renders one horizontal bar per [(label, value)],
    scaled so the largest value spans [width] (default 50) cells.
    Negative values are clamped to zero. *)

val grouped_bar_chart :
  ?title:string ->
  ?width:int ->
  ?unit_label:string ->
  series:string list ->
  (string * float list) list ->
  string
(** [grouped_bar_chart ~series rows] renders, for each row, one bar per
    series (all scaled to the global maximum), labelled with the series
    name — the textual analogue of the paper's grouped bar figures. *)

