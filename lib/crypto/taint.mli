(** Plaintext-taint tracking for TreatySan.

    Every buffer handed to {!Aead.seal} is a plaintext that must never
    itself leave the enclave — only its sealed form may. When enabled, the
    recent such buffers are kept in a bounded weak ring and the untrusted
    boundaries (netsim packet injection, host-memory writes in the storage
    layer) assert by physical identity ([==]) that the buffer they were
    handed is not one of them. Physical identity makes the check free of
    false positives by construction: sealing and decoding always produce
    fresh strings, so an alias can only mean the original plaintext was
    passed where ciphertext belongs.

    Only meaningful when the profile encrypts ([Config.profile.encryption]);
    plain profiles legitimately move plaintext everywhere. *)

val enable : unit -> unit
val disable : unit -> unit

val register : string -> unit
(** Remember a plaintext buffer (called by {!Aead.seal}). *)

val check : what:string -> string -> unit
(** [check ~what buf] records a {!Treaty_util.Sanitizer.Plaintext} violation
    if [buf] is physically one of the registered plaintexts. *)
