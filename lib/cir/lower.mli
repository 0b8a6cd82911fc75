(** Lowering: NF DSL programs to CIR control-flow graphs (§3.3).

    Plays the role of LLVM in the paper's pipeline.  Framework builtins
    become virtual calls with symbolic sizes and state-access counts;
    arithmetic becomes typed op-class instructions (so FPU-less targets
    can price float emulation, §3.4); conditions are analyzed into guards;
    counted [for] loops get symbolic trip counts (e.g. a loop bounded by
    [payload_len(pkt)] gets trip [S_payload]). *)

val lower : Ast.program -> Ir.program
(** The program is assumed to typecheck ({!Typecheck.check}); lowering a
    broken program raises [Failure]. *)

val lower_source : string -> Ir.program
(** Parse + typecheck + lower.
    @raise Lexer.Error | Parser.Error on syntax problems
    @raise Failure on type errors. *)

val of_source : string -> (Ir.program, string) result
(** {!lower_source} with its exceptions as messages: ["lex error at L:C: msg"],
    ["parse error at L:C: msg"], the type error's own message, or
    ["NF references undeclared state 'name'"].  The one front-end error
    path of the pipeline and the CLI. *)
