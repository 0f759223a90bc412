(* The differential oracle the simulation workloads check their
   statistics against: the pre-optimization pipeline, kept verbatim.
   It is named here and nowhere else, so if it moves into a test or
   bench library only this binding and the library list in [dune]
   change. *)

let run = Tca_uarch.Pipeline_reference.run
