//! Versioned session handshake (§3c of DESIGN.md).
//!
//! Before any base OT flows, the two parties exchange one fixed-size hello
//! frame each and agree on every parameter that must match for the
//! transcript to make sense: protocol version, ring width ℓ, fixed-point
//! fraction bits, weight-fragmentation scheme, activation variant, batch
//! size, and a digest of the model architecture. A mismatch that previously
//! surfaced deep inside the protocol as a garbled-circuit failure — or
//! worse, as silently wrong logits — now fails at connect time with a typed
//! [`ProtocolError::Negotiation`] carrying both parties' views.
//!
//! The hello frame also carries two 16-byte tokens. The first names *this*
//! session: a client reconnecting after a mid-protocol failure presents the
//! token of its checkpointed offline state, and the server answers whether
//! it still holds the matching checkpoint, so both sides agree on *fresh
//! run* versus *resume* before spending any cryptography. The second names
//! the *earlier* session whose OT-extension state (its lineage,
//! [`crate::session`]) the client still holds, with two flag bits saying
//! which halves; the server claims what it parked under that token and
//! answers with the halves both sides hold, so both agree which base-OT
//! batches the setup phase skips. An all-zero lineage token means none.
//!
//! Wire layout (72 bytes, little-endian):
//!
//! ```text
//! magic[4]=b"ABN2" | version[2] | variant[1] | flags[1]
//! ring_bits[4] | frac_bits[4] | weight_frac_bits[4] | batch[4]
//! scheme_digest[8] | model_digest[8] | token[16] | lineage[16]
//! ```
//!
//! `flags`: bit 0 resume (client: *request*; server: *accept*), bit 1
//! bundle (likewise), bit 2 busy (server only), bit 3 silent-OT capable,
//! bit 4 fragment half and bit 5 Yao half of the lineage (client: *held*;
//! server: *continued*), bit 6 park (server only: this session's lineage
//! will be parked under `token` at its clean end, so the client should
//! keep its halves). The digests are the leading 8 bytes of SHA-256 over a
//! canonical description, so two models with the same dimensions but
//! different fragmentation cannot be confused.
//!
//! Every combination of the lineage bytes decodes to a session: halves
//! offered under a zero token, a token with no halves, halves the server
//! does not hold and a park bit sent by a client all mean *nothing
//! continued* and a fresh setup; only a server that continues a half the
//! client never offered is an error, since the two would disagree on what
//! the setup phase runs.
//!
//! A peer older than v6 sends the 56-byte layout without the lineage field.
//! It is decoded (its version cannot match) and answered in its own layout,
//! so that peer too reports [`ProtocolError::Negotiation`] rather than a
//! framing error.
//!
//! The client speaks first (the server cannot know the batch size until the
//! client announces it); the server replies with its own hello *even when
//! the parameters mismatch*, so both sides observe the same symmetric
//! [`ProtocolError::Negotiation`] rather than one of them seeing a bare
//! `Closed`.

use crate::frames::Hello;
use crate::graph::PublicModel;
use crate::relu::ReluVariant;
use crate::ProtocolError;
use abnn2_crypto::sha256::sha256;
use abnn2_net::{Transport, TransportError};
use abnn2_nn::graph::LayerGraph;
use abnn2_ot::OfflineMode;

/// First four bytes of every hello frame.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"ABN2";

/// Version of the wire protocol spoken after the handshake. Bump on any
/// transcript-incompatible change.
///
/// v2: model digests are derived from the canonical [`LayerGraph`]
/// description (covering CNN topologies), and offline bundles carry a
/// leading layout-version byte.
///
/// v3: every protocol message carries a one-byte frame tag
/// ([`abnn2_net::wire::tags`]) ahead of its payload, checked on receive.
///
/// v4: the hello flags carry a silent-OT capability bit; sessions where
/// both sides set it run the offline phase over the LPN-based silent
/// extension (new frame tags `0x40..=0x43`) instead of IKNP/KK13. The
/// frame layout is unchanged — a v3 peer simply never sets the bit — but
/// the version is bumped because a v4 transcript with the bit set is
/// unreadable to v3.
///
/// v5: the op pipeline is extensible — graphs may contain secret×secret
/// matmul (matrix Beaver triplets, `MATMUL_OPENINGS` frames), softmax,
/// GELU, and layer-norm ops, and offline bundles use layout version 3
/// (matrix-triple sections). MLP/CNN transcripts are byte-identical to
/// v4 apart from the version field and the bundle layout byte.
///
/// v6: the hello grows from 56 to 72 bytes by a lineage token, and three
/// flag bits say which OT-extension halves continue from that earlier
/// session and whether this one's will be parked. The setup phase runs a
/// base-OT batch only for a half that is not continued and that the
/// session's path uses: a cold session that continues nothing is
/// byte-identical to v5 after the hello, a warm or resumed one no longer
/// carries the fragment chooser's batch.
///
/// v7: the circuit builder folds public constants and builds squares as
/// squares, so the softmax, GELU and LayerNorm circuits garble fewer ANDs
/// and their `GcTables`/`GcDecodeMap` frames differ from a v6 peer's for
/// the same model. The hello layout and every other circuit are unchanged.
///
/// v8: the random oracle expands a digest into a mask under its fixed key
/// (block `k` of the mask is `H(k, digest)`) instead of AES-CTR keyed by
/// the digest, so the `TripletMasked` frames, the masks keyed by a
/// `SilentDerand` exchange and the vector C-OT payload differ from a v7
/// peer's for the same keys. Sizes, tags and the hello layout are
/// unchanged.
pub const PROTOCOL_VERSION: u16 = 8;

/// Length of the hello frame in bytes.
pub const HELLO_LEN: usize = 72;

/// Length of the hello frame before v6: the same layout without the
/// trailing lineage token.
pub const LEGACY_HELLO_LEN: usize = 56;

/// Opaque identifier of a session: the key its resumable offline-phase
/// checkpoint or its parked lineage is stored under.
pub type ResumeToken = [u8; 16];

/// The lineage token that names no session.
const NO_LINEAGE: ResumeToken = [0; 16];

/// Everything that must match between the two parties for the protocol
/// transcript to be meaningful. Exchanged inside the hello frame and
/// compared field-for-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionParams {
    /// Wire-protocol version ([`PROTOCOL_VERSION`]).
    pub version: u16,
    /// Ring width ℓ of ℤ_{2^ℓ}.
    pub ring_bits: u32,
    /// Fractional bits of activations.
    pub frac_bits: u32,
    /// Fractional bits of weights.
    pub weight_frac_bits: u32,
    /// Leading 8 bytes of SHA-256 over the fragment scheme's canonical
    /// label and weight range.
    pub scheme_digest: [u8; 8],
    /// Activation variant (`0` = oblivious, `1` = optimized).
    pub variant: u8,
    /// Number of samples per prediction batch.
    pub batch: u32,
    /// Leading 8 bytes of SHA-256 over the model architecture (layer
    /// dimensions plus fixed-point configuration).
    pub model_digest: [u8; 8],
}

fn variant_code(variant: ReluVariant) -> u8 {
    match variant {
        ReluVariant::Oblivious => 0,
        ReluVariant::Optimized => 1,
    }
}

fn digest8(data: &[u8]) -> [u8; 8] {
    let full = sha256(data);
    full[..8].try_into().expect("8 bytes")
}

/// The `(scheme_digest, model_digest)` pair for a layer graph — the
/// canonical derivation shared by the handshake and the offline-bundle
/// pool key ([`crate::bundle::BundleKey`]). The model digest covers the
/// canonical op-by-op graph description plus the fixed-point
/// configuration, so any two architectures that lower to different graphs
/// (MLP or CNN alike) get distinct digests.
#[must_use]
pub fn graph_digests(graph: &LayerGraph) -> ([u8; 8], [u8; 8]) {
    let scheme = &graph.config.scheme;
    let (lo, hi) = scheme.weight_range();
    let scheme_desc = format!("{} [{lo},{hi}]", scheme.label());

    let model_desc = format!(
        "{}|ring{}|f{}|fw{}|{}",
        graph.describe(),
        graph.config.ring.bits(),
        graph.config.frac_bits,
        graph.config.weight_frac_bits,
        scheme_desc,
    );

    (digest8(scheme_desc.as_bytes()), digest8(model_desc.as_bytes()))
}

impl SessionParams {
    /// Derives the parameters both parties must agree on from the layer
    /// graph a model lowers to, the chosen activation variant, and the
    /// batch size. This is the canonical derivation;
    /// [`for_public`](Self::for_public) delegates here.
    #[must_use]
    pub fn for_graph(graph: &LayerGraph, variant: ReluVariant, batch: usize) -> Self {
        let (scheme_digest, model_digest) = graph_digests(graph);
        SessionParams {
            version: PROTOCOL_VERSION,
            ring_bits: graph.config.ring.bits(),
            frac_bits: graph.config.frac_bits,
            weight_frac_bits: graph.config.weight_frac_bits,
            scheme_digest,
            variant: variant_code(variant),
            batch: batch as u32,
            model_digest,
        }
    }

    /// Derives the parameters from a public model of any topology.
    #[must_use]
    pub fn for_public(model: &PublicModel, variant: ReluVariant, batch: usize) -> Self {
        Self::for_graph(&model.graph, variant, batch)
    }
}

/// Every field of one hello frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HelloFields {
    params: SessionParams,
    flags: u8,
    token: ResumeToken,
    lineage: ResumeToken,
    /// The frame is (or is to be) in the pre-v6 layout, which has no
    /// lineage field.
    legacy: bool,
}

impl HelloFields {
    fn encode(&self) -> Vec<u8> {
        let p = &self.params;
        let mut frame = Vec::with_capacity(HELLO_LEN);
        frame.extend_from_slice(&HANDSHAKE_MAGIC);
        frame.extend_from_slice(&p.version.to_le_bytes());
        frame.extend_from_slice(&[p.variant, self.flags]);
        for field in [p.ring_bits, p.frac_bits, p.weight_frac_bits, p.batch] {
            frame.extend_from_slice(&field.to_le_bytes());
        }
        frame.extend_from_slice(&p.scheme_digest);
        frame.extend_from_slice(&p.model_digest);
        frame.extend_from_slice(&self.token);
        if !self.legacy {
            frame.extend_from_slice(&self.lineage);
        }
        frame
    }

    fn decode(frame: &[u8]) -> Result<Self, ProtocolError> {
        let legacy = match frame.len() {
            HELLO_LEN => false,
            LEGACY_HELLO_LEN => true,
            _ => return Err(ProtocolError::Handshake("hello frame length")),
        };
        if frame[0..4] != HANDSHAKE_MAGIC {
            return Err(ProtocolError::Handshake("bad magic (peer is not ABNN2)"));
        }
        let le_u16 =
            |r: std::ops::Range<usize>| u16::from_le_bytes(frame[r].try_into().expect("2 bytes"));
        let le_u32 =
            |r: std::ops::Range<usize>| u32::from_le_bytes(frame[r].try_into().expect("4 bytes"));
        let params = SessionParams {
            version: le_u16(4..6),
            variant: frame[6],
            ring_bits: le_u32(8..12),
            frac_bits: le_u32(12..16),
            weight_frac_bits: le_u32(16..20),
            batch: le_u32(20..24),
            scheme_digest: frame[24..32].try_into().expect("8 bytes"),
            model_digest: frame[32..40].try_into().expect("8 bytes"),
        };
        let token: ResumeToken = frame[40..56].try_into().expect("16 bytes");
        let lineage = if legacy { NO_LINEAGE } else { frame[56..72].try_into().expect("16 bytes") };
        Ok(HelloFields { params, flags: frame[7], token, lineage, legacy })
    }
}

const FLAG_RESUME: u8 = 1;
const FLAG_BUNDLE: u8 = 2;
const FLAG_BUSY: u8 = 4;
const FLAG_SILENT: u8 = 8;
const FLAG_LINEAGE_KK: u8 = 16;
const FLAG_LINEAGE_YAO: u8 = 32;
const FLAG_PARK: u8 = 64;

/// A hello that fails wire-level framing (wrong tag, wrong length) means
/// the peer is not speaking this protocol: classify it as
/// [`ProtocolError::Handshake`] rather than the generic `Malformed` used
/// for post-handshake traffic.
fn hello_err(e: TransportError) -> ProtocolError {
    match e {
        TransportError::Malformed(what) => ProtocolError::Handshake(what),
        other => other.into(),
    }
}

/// Which halves of a lineage ([`crate::session`]): the fragment-OT half
/// the offline phase extends, and the Yao half the online phase extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Halves {
    /// The fragment-OT sender/chooser.
    pub kk: bool,
    /// The Yao garbler/evaluator.
    pub yao: bool,
}

impl Halves {
    /// Whether either half is named.
    #[must_use]
    pub fn any(self) -> bool {
        self.kk || self.yao
    }

    fn and(self, other: Halves) -> Halves {
        Halves { kk: self.kk && other.kk, yao: self.yao && other.yao }
    }

    fn from_flags(flags: u8) -> Self {
        Halves { kk: flags & FLAG_LINEAGE_KK != 0, yao: flags & FLAG_LINEAGE_YAO != 0 }
    }

    fn flags(self) -> u8 {
        (if self.kk { FLAG_LINEAGE_KK } else { 0 }) | (if self.yao { FLAG_LINEAGE_YAO } else { 0 })
    }
}

/// What the client asks of a session beyond the baseline protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HelloRequest {
    /// Resume the offline checkpoint identified by the hello's token.
    pub resume: bool,
    /// Install a server-precomputed offline bundle (dealer mode) so the
    /// interactive offline phase can be skipped. Ignored by the server when
    /// a resume was requested and accepted.
    pub bundle: bool,
    /// This client can run the offline phase over the silent (LPN) OT
    /// extension; the session uses it only if the server sets the bit too.
    pub silent: bool,
    /// Token of the earlier session whose lineage this client holds
    /// (all-zero: none).
    pub lineage: ResumeToken,
    /// The halves of that lineage the client holds.
    pub held: Halves,
}

/// The server's answer to a [`HelloRequest`], read from the reply flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HelloReply {
    /// The server holds the checkpoint and will resume it.
    pub resume: bool,
    /// The server has a warm precomputed bundle and will send it right
    /// after session setup.
    pub bundle: bool,
    /// Both sides are silent-OT capable: the offline phase (and any pooled
    /// bundle) uses [`abnn2_ot::OfflineMode::Silent`].
    pub silent: bool,
    /// The lineage halves both sides hold: the session extends them and
    /// runs no base OTs for them. The fragment half is continued only if
    /// it runs the negotiated offline mode.
    pub continued: Halves,
    /// The server parks this session's lineage under the hello's token at
    /// its clean end, so the client should keep its halves.
    pub park: bool,
}

impl HelloReply {
    /// The negotiated offline mode this reply implies.
    #[must_use]
    pub fn mode(&self) -> OfflineMode {
        if self.silent {
            OfflineMode::Silent
        } else {
            OfflineMode::Iknp
        }
    }

    /// The mode of the interactive offline phase this session runs, `None`
    /// when a resumed checkpoint or a dealt bundle stands in for it — in
    /// which case the session has no use for a fragment-OT half.
    #[must_use]
    pub fn offline(&self) -> Option<OfflineMode> {
        (!self.resume && !self.bundle).then(|| self.mode())
    }
}

/// Client side of the handshake: sends our hello carrying the
/// [`HelloRequest`] (resume and/or warm-bundle, and the lineage held),
/// receives the server's hello, and verifies agreement.
///
/// # Errors
///
/// [`ProtocolError::Overloaded`] if the server refused admission (it read
/// nothing of the hello, so whatever the request offered is still
/// claimable), [`ProtocolError::Handshake`] if the reply is not a valid
/// hello frame or continues a half that was not offered,
/// [`ProtocolError::Negotiation`] if the parameters disagree, or a
/// transport-level error.
pub fn handshake_client_ext<T: Transport>(
    ch: &mut T,
    ours: SessionParams,
    token: &ResumeToken,
    request: HelloRequest,
) -> Result<HelloReply, ProtocolError> {
    let mut flags = request.held.flags();
    if request.resume {
        flags |= FLAG_RESUME;
    }
    if request.bundle {
        flags |= FLAG_BUNDLE;
    }
    if request.silent {
        flags |= FLAG_SILENT;
    }
    let hello =
        HelloFields { params: ours, flags, token: *token, lineage: request.lineage, legacy: false };
    ch.send_frame(&Hello(hello.encode()))?;
    let Hello(reply) = ch.recv_frame().map_err(hello_err)?;
    let reply = HelloFields::decode(&reply)?;
    // Admission rejection outranks the parameter check: an overloaded
    // server replies with a minimal busy frame, not its real parameters.
    // The token field of a busy frame is repurposed to carry the server's
    // retry-after hint in its leading four bytes (zero from older peers).
    if reply.flags & FLAG_BUSY != 0 {
        let retry_after_ms =
            u32::from_le_bytes(reply.token[..4].try_into().expect("token is 16 bytes"));
        return Err(ProtocolError::Overloaded { retry_after_ms });
    }
    if reply.params != ours {
        return Err(ProtocolError::Negotiation { ours, theirs: reply.params });
    }
    let continued = Halves::from_flags(reply.flags);
    if continued.and(request.held) != continued {
        return Err(ProtocolError::Handshake("server continued a lineage half never offered"));
    }
    Ok(HelloReply {
        resume: request.resume && reply.flags & FLAG_RESUME != 0,
        bundle: request.bundle && reply.flags & FLAG_BUNDLE != 0,
        silent: request.silent && reply.flags & FLAG_SILENT != 0,
        continued,
        park: reply.flags & FLAG_PARK != 0,
    })
}

/// Server side of the handshake: receives the client hello, derives our
/// own parameters for the announced batch via `ours_for`, decides on the
/// client's [`HelloRequest`] via `can_resume`/`offer_bundle`/
/// `held_halves`, and replies.
///
/// `offer_bundle` is consulted only when the client asked for a bundle and
/// no resume was accepted (a resumed session already has its offline
/// state); it receives the negotiated parameters *and the negotiated
/// offline mode* so it can look up the matching pool key — bundles pooled
/// for silent sessions are keyed apart from IKNP ones — and, when it
/// answers `true`, it has *committed* to sending the bundle right after
/// session setup.
///
/// `held_halves` is consulted only when the client offered at least one
/// half under a non-zero lineage token; it receives that token and the
/// negotiated offline mode, claims whatever is parked there and answers
/// with the halves it now holds *in that mode*. The reply continues those
/// the client offered too. `parks` says whether this session's lineage
/// will be parked at its clean end; the reply carries it unless the
/// session's own token is all-zero, which nothing could be claimed under.
///
/// The reply is sent *before* the mismatch check so a disagreeing client
/// observes the same [`ProtocolError::Negotiation`] we do.
///
/// Returns `(batch, client_token, reply)`.
///
/// # Errors
///
/// [`ProtocolError::Handshake`] if the hello is not a valid frame,
/// [`ProtocolError::Negotiation`] if the parameters disagree, or a
/// transport-level error.
pub fn handshake_server_ext<T: Transport>(
    ch: &mut T,
    ours_for: impl FnOnce(usize) -> SessionParams,
    can_resume: impl FnOnce(&ResumeToken) -> bool,
    offer_bundle: impl FnOnce(&SessionParams, OfflineMode) -> bool,
    parks: bool,
    held_halves: impl FnOnce(&ResumeToken, OfflineMode) -> Halves,
) -> Result<(usize, ResumeToken, HelloReply), ProtocolError> {
    let Hello(hello) = ch.recv_frame().map_err(hello_err)?;
    let hello = HelloFields::decode(&hello)?;
    let (theirs, flags, token) = (hello.params, hello.flags, hello.token);
    let batch = theirs.batch as usize;
    let ours = ours_for(batch);
    // Only honor requests from a matching peer: a client that is about to
    // fail negotiation must not consume a checkpoint, a pooled bundle or a
    // parked lineage.
    let matched = theirs == ours;
    // The server is always silent-capable; the client's bit decides. A
    // mixed fleet thus degrades per-connection: silent clients get silent
    // sessions, IKNP clients keep the KK13 path, on one server.
    let silent_ok = matched && flags & FLAG_SILENT != 0;
    let mode = if silent_ok { OfflineMode::Silent } else { OfflineMode::Iknp };
    let resume_ok = matched && flags & FLAG_RESUME != 0 && can_resume(&token);
    let bundle_ok = matched && !resume_ok && flags & FLAG_BUNDLE != 0 && offer_bundle(&ours, mode);
    let offered = Halves::from_flags(flags);
    let continued = if matched && offered.any() && hello.lineage != NO_LINEAGE {
        offered.and(held_halves(&hello.lineage, mode))
    } else {
        Halves::default()
    };
    let park_ok = matched && parks && token != NO_LINEAGE;
    let mut reply_flags = continued.flags();
    if resume_ok {
        reply_flags |= FLAG_RESUME;
    }
    if bundle_ok {
        reply_flags |= FLAG_BUNDLE;
    }
    if silent_ok {
        reply_flags |= FLAG_SILENT;
    }
    if park_ok {
        reply_flags |= FLAG_PARK;
    }
    let reply = HelloFields { params: ours, flags: reply_flags, lineage: NO_LINEAGE, ..hello };
    ch.send_frame(&Hello(reply.encode()))?;
    ch.flush()?;
    if !matched {
        return Err(ProtocolError::Negotiation { ours, theirs });
    }
    let reply = HelloReply {
        resume: resume_ok,
        bundle: bundle_ok,
        silent: silent_ok,
        continued,
        park: park_ok,
    };
    Ok((batch, token, reply))
}

/// Admission-control rejection: sent by a server that will not serve this
/// connection (accept queue full, or draining for shutdown), *without*
/// reading the client's hello. The busy frame carries the server's
/// parameters for batch 0 purely to satisfy the frame format; the client
/// checks the busy flag before anything else and surfaces
/// [`ProtocolError::Overloaded`].
///
/// `retry_after_ms` is a load-shedding hint (zero for none): the client
/// should wait at least that long before its next admission attempt. It
/// rides in the leading four bytes of the busy frame's otherwise-unused
/// token field, so the frame format and protocol version are unchanged;
/// clients that predate the hint see only the busy flag they already
/// understand.
///
/// # Errors
///
/// Transport-level errors only; a peer that vanished mid-rejection is not
/// worth reporting beyond that.
pub fn reject_busy_with<T: Transport>(
    ch: &mut T,
    ours: SessionParams,
    retry_after_ms: u32,
) -> Result<(), ProtocolError> {
    let mut token = [0u8; 16];
    token[..4].copy_from_slice(&retry_after_ms.to_le_bytes());
    let busy =
        HelloFields { params: ours, flags: FLAG_BUSY, token, lineage: NO_LINEAGE, legacy: false };
    ch.send_frame(&Hello(busy.encode()))?;
    ch.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{Endpoint, NetworkModel};
    use abnn2_nn::quant::QuantConfig;

    fn info_with(dims: &[usize], ring_bits: u32, scheme: FragmentScheme) -> PublicModel {
        let config =
            QuantConfig { ring: Ring::new(ring_bits), frac_bits: 8, weight_frac_bits: 4, scheme };
        LayerGraph::mlp(dims, config).into()
    }

    fn info(dims: &[usize], ring_bits: u32) -> PublicModel {
        info_with(dims, ring_bits, FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]))
    }

    /// A server that resumes nothing, deals nothing and parks nothing.
    fn decline_all(
        ch: &mut Endpoint,
        ours_for: impl FnOnce(usize) -> SessionParams,
    ) -> Result<(usize, ResumeToken, HelloReply), ProtocolError> {
        handshake_server_ext(ch, ours_for, |_| false, |_, _| false, false, |_, _| Halves::default())
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = SessionParams::for_public(&info(&[784, 16, 10], 32), ReluVariant::Optimized, 3);
        let hello = HelloFields {
            params: p,
            flags: FLAG_RESUME | FLAG_LINEAGE_YAO,
            token: [7; 16],
            lineage: [9; 16],
            legacy: false,
        };
        let frame = hello.encode();
        assert_eq!(frame.len(), HELLO_LEN);
        assert_eq!(HelloFields::decode(&frame).unwrap(), hello);
        // The pre-v6 layout is the same frame without its last field.
        let legacy = HelloFields { lineage: NO_LINEAGE, legacy: true, ..hello };
        assert_eq!(legacy.encode(), frame[..LEGACY_HELLO_LEN]);
        assert_eq!(HelloFields::decode(&frame[..LEGACY_HELLO_LEN]).unwrap(), legacy);
    }

    proptest::proptest! {
        /// `decode` is total over what a peer can put in a `Hello` frame:
        /// random bytes of any length, a truncated or extended hello, a
        /// bit-flipped one. It answers with a typed handshake error or
        /// with exactly the fields the bytes spell, never a panic.
        #[test]
        fn hello_decode_is_total(seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = SessionParams::for_public(&info(&[8, 4, 2], 32), ReluVariant::Optimized, 3);
            let good = HelloFields {
                params: p,
                flags: rng.gen(),
                token: rng.gen::<u128>().to_le_bytes(),
                lineage: rng.gen::<u128>().to_le_bytes(),
                legacy: false,
            };
            let mut bytes = good.encode();
            match rng.gen_range(0..5u32) {
                0 => bytes = (0..rng.gen_range(0..2 * HELLO_LEN)).map(|_| rng.gen()).collect(),
                1 => bytes.truncate(rng.gen_range(0..HELLO_LEN)),
                // Every length, the two layouts' own included.
                4 => bytes = vec![rng.gen(); seed as usize % (2 * HELLO_LEN)],
                2 => bytes.extend((0..rng.gen_range(1..9usize)).map(|_| rng.gen::<u8>())),
                _ => {
                    let bit = rng.gen_range(0..8 * HELLO_LEN);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            match HelloFields::decode(&bytes) {
                Err(e) => proptest::prop_assert!(
                    matches!(e, ProtocolError::Handshake(_)),
                    "untyped failure {e:?}"
                ),
                // Every byte of a hello is a field: what decodes re-encodes
                // to the same frame, in either layout.
                Ok(hello) => {
                    proptest::prop_assert!(
                        bytes.len() == HELLO_LEN || bytes.len() == LEGACY_HELLO_LEN
                    );
                    proptest::prop_assert_eq!(hello.encode(), bytes);
                }
            }
        }
    }

    #[test]
    fn digests_distinguish_models_and_schemes() {
        let base = SessionParams::for_public(&info(&[784, 16, 10], 32), ReluVariant::Oblivious, 1);
        let other_dims =
            SessionParams::for_public(&info(&[784, 12, 10], 32), ReluVariant::Oblivious, 1);
        assert_ne!(base.model_digest, other_dims.model_digest);

        let ternary = info_with(&[784, 16, 10], 32, FragmentScheme::ternary());
        let other_scheme = SessionParams::for_public(&ternary, ReluVariant::Oblivious, 1);
        assert_ne!(base.scheme_digest, other_scheme.scheme_digest);
    }

    #[test]
    fn matching_parties_agree_and_resume_flows_through() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 2);
        let token: ResumeToken = [3; 16];

        let i2 = i.clone();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_public(&i2, ReluVariant::Oblivious, batch),
                    |t| *t == [3; 16],
                    |_, _| false,
                    false,
                    |_, _| Halves::default(),
                )
            });
            let request = HelloRequest { resume: true, ..HelloRequest::default() };
            let accepted = handshake_client_ext(&mut c, ours, &token, request).unwrap();
            assert!(accepted.resume);
            let (batch, seen_token, reply) = server.join().unwrap().unwrap();
            assert_eq!(batch, 2);
            assert_eq!(seen_token, token);
            assert!(reply.resume);
        });
    }

    #[test]
    fn mismatched_parties_both_see_negotiation() {
        let client_info = info(&[8, 4, 2], 32);
        let server_info = info(&[8, 4, 2], 16); // different ring width
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&client_info, ReluVariant::Oblivious, 1);

        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_public(&server_info, ReluVariant::Oblivious, batch),
                    |_| false,
                    |_, _| false,
                    false,
                    |_, _| Halves::default(),
                )
            });
            let client_err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            let server_err = server.join().unwrap().unwrap_err();
            match (client_err, server_err) {
                (
                    ProtocolError::Negotiation { ours: co, theirs: ct },
                    ProtocolError::Negotiation { ours: so, theirs: st },
                ) => {
                    // Each party's "theirs" is the other's "ours".
                    assert_eq!(co, st);
                    assert_eq!(so, ct);
                    assert_ne!(co.ring_bits, ct.ring_bits);
                }
                other => panic!("expected symmetric negotiation errors, got {other:?}"),
            }
        });
    }

    #[test]
    fn variant_mismatch_is_negotiation() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&i, ReluVariant::Optimized, 1);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _ = handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_public(&i2, ReluVariant::Oblivious, batch),
                    |_| false,
                    |_, _| false,
                    false,
                    |_, _| Halves::default(),
                );
            });
            let err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            assert!(matches!(err, ProtocolError::Negotiation { .. }));
        });
    }

    #[test]
    fn busy_rejection_surfaces_overloaded_before_negotiation() {
        // The server's busy frame carries mismatching parameters (batch 0),
        // but the busy flag must win: the client reports Overloaded, not
        // Negotiation.
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 3);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                reject_busy_with(
                    &mut s,
                    SessionParams::for_public(&i2, ReluVariant::Oblivious, 0),
                    250,
                )
                .unwrap();
                // Drain the client's hello so the link stays open until the
                // client has sent it (a real acceptor closes after reject;
                // the hello sits in the socket buffer either way). Raw
                // recv on purpose: the frame is discarded unparsed.
                let _ = Transport::recv(&mut s);
            });
            let err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            assert_eq!(err, ProtocolError::Overloaded { retry_after_ms: 250 });
        });
    }

    #[test]
    fn plain_busy_rejection_carries_no_hint() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 1);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                reject_busy_with(
                    &mut s,
                    SessionParams::for_public(&i2, ReluVariant::Oblivious, 0),
                    0,
                )
                .unwrap();
                let _ = Transport::recv(&mut s);
            });
            let err =
                handshake_client_ext(&mut c, ours, &[0; 16], HelloRequest::default()).unwrap_err();
            assert_eq!(err, ProtocolError::Overloaded { retry_after_ms: 0 });
        });
    }

    #[test]
    fn bundle_request_honored_for_matching_peer() {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 2);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_public(&i2, ReluVariant::Oblivious, batch),
                    |_| false,
                    |params, _| params.batch == 2,
                    false,
                    |_, _| Halves::default(),
                )
            });
            let reply = handshake_client_ext(
                &mut c,
                ours,
                &[0; 16],
                HelloRequest { bundle: true, ..HelloRequest::default() },
            )
            .unwrap();
            assert_eq!(reply, HelloReply { bundle: true, ..HelloReply::default() });
            let (_, _, srv_reply) = server.join().unwrap().unwrap();
            assert_eq!(srv_reply, reply);
        });
    }

    #[test]
    fn resume_wins_over_bundle() {
        // A client asking for both gets the resume; the pool must not also
        // commit a bundle to a session that already has offline state.
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 1);
        let i2 = i.clone();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_public(&i2, ReluVariant::Oblivious, batch),
                    |_| true,
                    |_, _| true,
                    false,
                    |_, _| Halves::default(),
                )
            });
            let reply = handshake_client_ext(
                &mut c,
                ours,
                &[5; 16],
                HelloRequest { resume: true, bundle: true, ..HelloRequest::default() },
            )
            .unwrap();
            assert_eq!(reply, HelloReply { resume: true, ..HelloReply::default() });
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn silent_capability_negotiates_per_connection() {
        use abnn2_ot::OfflineMode;
        // A silent-capable client gets a silent session; a legacy client on
        // the same server silently (pun intended) keeps the KK13 path.
        let i = info(&[8, 4, 2], 32);
        for client_silent in [true, false] {
            let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
            let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 1);
            let i2 = i.clone();
            std::thread::scope(|scope| {
                let server = scope.spawn(move || {
                    handshake_server_ext(
                        &mut s,
                        |batch| SessionParams::for_public(&i2, ReluVariant::Oblivious, batch),
                        |_| false,
                        |_, _| false,
                        false,
                        |_, _| Halves::default(),
                    )
                });
                let reply = handshake_client_ext(
                    &mut c,
                    ours,
                    &[0; 16],
                    HelloRequest { silent: client_silent, ..HelloRequest::default() },
                )
                .unwrap();
                assert_eq!(reply.silent, client_silent);
                let expect = if client_silent { OfflineMode::Silent } else { OfflineMode::Iknp };
                assert_eq!(reply.mode(), expect);
                let (_, _, srv_reply) = server.join().unwrap().unwrap();
                assert_eq!(srv_reply, reply);
            });
        }
    }

    #[test]
    fn mismatched_peer_cannot_consume_bundle_or_checkpoint() {
        let client_info = info(&[8, 4, 2], 32);
        let server_info = info(&[8, 4, 2], 16);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&client_info, ReluVariant::Oblivious, 1);
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let consulted = std::cell::Cell::new(false);
                let r = handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_public(&server_info, ReluVariant::Oblivious, batch),
                    |_| {
                        consulted.set(true);
                        true
                    },
                    |_, _| {
                        consulted.set(true);
                        true
                    },
                    true,
                    |_, _| {
                        consulted.set(true);
                        Halves { kk: true, yao: true }
                    },
                );
                (r, consulted.get())
            });
            let err = handshake_client_ext(
                &mut c,
                ours,
                &[9; 16],
                HelloRequest {
                    resume: true,
                    bundle: true,
                    lineage: [8; 16],
                    held: Halves { kk: true, yao: true },
                    ..HelloRequest::default()
                },
            )
            .unwrap_err();
            assert!(matches!(err, ProtocolError::Negotiation { .. }));
            let (result, consulted) = server.join().unwrap();
            assert!(matches!(result, Err(ProtocolError::Negotiation { .. })));
            assert!(!consulted, "mismatched peers must not reach the store or pool");
        });
    }

    #[test]
    fn garbage_hello_is_handshake_error() {
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let our_params =
            |_: usize| SessionParams::for_public(&info(&[2, 2], 32), ReluVariant::Oblivious, 1);

        // Raw sends on purpose: these messages simulate a peer that does
        // not speak the framed protocol at all.
        Transport::send(&mut c, b"GET / HTTP/1.1\r\n").unwrap();
        let err = decline_all(&mut s, our_params).unwrap_err();
        assert_eq!(err, ProtocolError::Handshake("hello frame tag"));

        // Right tag, wrong payload length.
        Transport::send(&mut c, &[abnn2_net::wire::tags::HELLO, 1, 2, 3]).unwrap();
        let err = decline_all(&mut s, our_params).unwrap_err();
        assert_eq!(err, ProtocolError::Handshake("hello frame length"));

        // Right tag and length, wrong magic.
        let mut msg = vec![abnn2_net::wire::tags::HELLO];
        msg.extend_from_slice(&[0u8; HELLO_LEN]);
        msg[1..5].copy_from_slice(b"HTTP");
        Transport::send(&mut c, &msg).unwrap();
        let err = decline_all(&mut s, our_params).unwrap_err();
        assert_eq!(err, ProtocolError::Handshake("bad magic (peer is not ABNN2)"));
    }

    /// One client hello against a server that parks lineages and holds
    /// `held` under token `[6; 16]` (claims are counted): the client's
    /// result, the server's, and how often the store was consulted.
    fn lineage_exchange(
        client_token: ResumeToken,
        request: HelloRequest,
        held: Halves,
    ) -> (Result<HelloReply, ProtocolError>, HelloReply, u32) {
        let i = info(&[8, 4, 2], 32);
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 1);
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let claims = std::cell::Cell::new(0);
                let (_, _, reply) = handshake_server_ext(
                    &mut s,
                    |batch| SessionParams::for_public(&i, ReluVariant::Oblivious, batch),
                    |_| false,
                    |_, _| false,
                    true,
                    |t, _| {
                        claims.set(claims.get() + 1);
                        if *t == [6; 16] {
                            held
                        } else {
                            Halves::default()
                        }
                    },
                )
                .expect("a matched peer is always admitted");
                (reply, claims.get())
            });
            let client = handshake_client_ext(&mut c, ours, &client_token, request);
            let (reply, claims) = server.join().unwrap();
            (client, reply, claims)
        })
    }

    /// Every way the lineage bytes can be set lands on a session: the
    /// halves both sides hold continue, everything else is a fresh setup,
    /// and the store is touched only for a real offer.
    #[test]
    fn every_lineage_offer_continues_what_both_hold_or_nothing() {
        let both = Halves { kk: true, yao: true };
        let yao = Halves { kk: false, yao: true };
        let none = Halves::default();
        let offer = |lineage, held| HelloRequest { lineage, held, ..HelloRequest::default() };
        // (offer, server holds, continued, store consulted)
        for (request, held, want, claims) in [
            (offer([6; 16], both), both, both, 1),
            (offer([6; 16], both), yao, yao, 1),
            (offer([6; 16], yao), both, yao, 1),
            // Unknown token: graceful absence.
            (offer([5; 16], both), both, none, 1),
            // Halves under the zero token, and a token with no halves,
            // offer nothing: the store is not consulted.
            (offer(NO_LINEAGE, both), both, none, 0),
            (offer([6; 16], none), both, none, 0),
            (HelloRequest::default(), both, none, 0),
        ] {
            let (client, server, consulted) = lineage_exchange([1; 16], request, held);
            let client = client.expect("every offer is a session");
            assert_eq!(client, server, "{request:?}");
            assert_eq!(client.continued, want, "{request:?} against {held:?}");
            assert_eq!(consulted, claims, "{request:?}");
            assert!(client.park, "a parking host says so to every named session");
        }
        // A session with no token of its own cannot be parked under it.
        let (client, _, _) = lineage_exchange(NO_LINEAGE, offer([6; 16], both), both);
        assert!(!client.unwrap().park);
    }

    /// The flag bits only a server means anything by are ignored coming
    /// from a client, and a server that continues what was never offered
    /// is refused: the two would run different setups.
    #[test]
    fn stray_lineage_flags_are_ignored_or_refused() {
        let i = info(&[8, 4, 2], 32);
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 1);
        let hello = |flags| {
            Hello(
                HelloFields {
                    params: ours,
                    flags,
                    token: [1; 16],
                    lineage: [0; 16],
                    legacy: false,
                }
                .encode(),
            )
        };
        // Park and busy bits from a client: a plain fresh session.
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        c.send_frame(&hello(FLAG_PARK | FLAG_BUSY)).unwrap();
        let (_, _, reply) = decline_all(&mut s, |_| ours).unwrap();
        assert_eq!(reply, HelloReply::default());

        // A server continuing the Yao half of a client that offered none.
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        s.send_frame(&hello(FLAG_LINEAGE_YAO)).unwrap();
        let err = handshake_client_ext(&mut c, ours, &[1; 16], HelloRequest::default());
        assert_eq!(
            err,
            Err(ProtocolError::Handshake("server continued a lineage half never offered"))
        );
    }

    /// A peer that predates v6 sends 56 bytes. It is answered in 56 bytes
    /// carrying our version, so its own decoder reports the version
    /// mismatch; we report the same.
    #[test]
    fn a_legacy_hello_is_answered_in_kind_with_a_negotiation_error() {
        let i = info(&[8, 4, 2], 32);
        let ours = SessionParams::for_public(&i, ReluVariant::Oblivious, 1);
        let theirs = SessionParams { version: 5, ..ours };
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        let old = HelloFields {
            params: theirs,
            flags: FLAG_RESUME,
            token: [4; 16],
            lineage: NO_LINEAGE,
            legacy: true,
        };
        c.send_frame(&Hello(old.encode())).unwrap();
        let err = decline_all(&mut s, |_| ours).unwrap_err();
        assert_eq!(err, ProtocolError::Negotiation { ours, theirs });
        let Hello(reply) = c.recv_frame().unwrap();
        assert_eq!(reply.len(), LEGACY_HELLO_LEN);
        let reply = HelloFields::decode(&reply).unwrap();
        assert_eq!((reply.params, reply.token, reply.flags), (ours, [4; 16], 0));
    }
}
