type typ = Tint | Tbool | Tstring | Tclass of string | Tvoid

type binop = Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne | And | Or
type unop = Not | Neg

type expr =
  | Int_lit of int
  | Bool_lit of bool
  | Str_lit of string
  | Null_lit
  | This
  | Var of string
  | Field of expr * string
  | Call of expr * string * expr list
  | New of string * expr list
  | Binop of binop * expr * expr
  | Unop of unop * expr

type stmt =
  | Local of typ * string * expr option
  | Assign of string * expr
  | Field_assign of expr * string * expr
  | Expr of expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
  | Return of expr option
  | Synchronized of expr * stmt list
  | Spawn of expr

type method_decl = {
  md_name : string;
  md_params : (typ * string) list;
  md_ret : typ;
  md_static : bool;
  md_synchronized : bool;
  md_body : stmt list;
}

type class_decl = {
  cd_name : string;
  cd_super : string option;
  cd_fields : (typ * string) list;
  cd_methods : method_decl list;
}

type program = class_decl list

