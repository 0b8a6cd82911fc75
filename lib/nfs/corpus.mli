(** The bundled NF corpus as a single registry: name, description, DSL
    source, and the hand-ported simulator variant.  Used by the CLI's
    [corpus] subcommand, the benchmark zoo, and the test suite. *)

type entry = {
  name : string;
  description : string;
  source : string;
  ported : Clara_nicsim.Device.prog;
}

val all : entry list
(** Twelve NFs: the paper's five (plus its VNF chain) and six extensions. *)

val find : string -> entry option

val resolve : string -> entry option
(** {!find} for a name or a source path: the basename without its
    extension, with '_' read as '-', so
    [examples/nf_sources/syn_proxy.clara] resolves to [syn-proxy]. *)

val names : string list
