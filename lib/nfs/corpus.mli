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

val resolve : string -> (entry, string) result
(** {!find} for a name or a source path: the basename without its
    extension, with '_' read as '-', so
    [examples/nf_sources/syn_proxy.clara] resolves to [syn-proxy].  When
    the argument is an existing file, it resolves only if it lowers to
    the same CIR as the entry's source: a different NF saved under a
    corpus name is not that NF.  [Error] says why, ready to print. *)

val names : string list
