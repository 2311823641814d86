//! One shape per failure. Below the session every entry point reports a
//! silent peer as exactly `TransportError::TimedOut` and a cut link as
//! exactly `TransportError::Closed`, whichever subprotocol (base OT, IKNP,
//! KK13, silent OT, Yao) was running; inside the session they are exactly
//! `ProtocolError::TimedOut` and `ProtocolError::Channel`. No layer wraps
//! another's error, so a caller matches one value per failure.

use abnn2::core::inference::SecureClient;
use abnn2::core::matmul::{triplet_server, TripletMode};
use abnn2::core::ProtocolError;
use abnn2::gc::{circuits, YaoEvaluator, YaoGarbler};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{Endpoint, NetworkModel, Transport, TransportError};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::Network;
use abnn2::ot::{
    base, FragmentChooser, IknpReceiver, IknpSender, KkChooser, KkSender, OfflineMode,
    SilentCotReceiver,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Duration;

/// How long the entry side waits on a silent peer.
const READ_TIMEOUT: Duration = Duration::from_millis(150);

/// The whole table must finish well within this: no entry point may hang.
const WATCHDOG: Duration = Duration::from_secs(120);

/// What an entry point returned, at the layer it reports from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Got {
    Below(TransportError),
    Session(ProtocolError),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// The peer keeps the link open and sends nothing.
    Silent,
    /// The peer hangs up.
    Cut,
}

impl Got {
    /// The one value `link`'s failure may take at this layer.
    fn expected(self, link: Link) -> Got {
        match (self, link) {
            (Got::Below(_), Link::Silent) => Got::Below(TransportError::TimedOut),
            (Got::Below(_), Link::Cut) => Got::Below(TransportError::Closed),
            (Got::Session(_), Link::Silent) => Got::Session(ProtocolError::TimedOut),
            (Got::Session(_), Link::Cut) => Got::Session(ProtocolError::Channel),
        }
    }
}

fn below<V>(r: Result<V, TransportError>) -> Got {
    Got::Below(r.err().expect("the entry point must fail"))
}

fn session<V>(r: Result<V, ProtocolError>) -> Got {
    Got::Session(r.err().expect("the entry point must fail"))
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Bounds the entry side's reads; called right before the call under
/// test, after any setup it needs against the live peer.
fn arm(ch: &mut Endpoint) {
    ch.set_read_timeout(Some(READ_TIMEOUT)).expect("read timeout");
}

struct Case {
    name: &'static str,
    /// What the peer runs before it goes silent or hangs up.
    peer: fn(&mut Endpoint),
    /// The entry point, after the setup it needs.
    entry: fn(&mut Endpoint) -> Got,
}

fn no_peer(_: &mut Endpoint) {}

fn tiny_model() -> QuantizedNetwork {
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    QuantizedNetwork::quantize(&Network::new(&[8, 4, 2], 5), config)
}

const CASES: &[Case] = &[
    Case {
        name: "base::recv",
        peer: no_peer,
        entry: |ch| {
            arm(ch);
            below(base::recv(ch, &[true], &mut rng(1)))
        },
    },
    Case {
        name: "IknpSender::setup",
        peer: no_peer,
        entry: |ch| {
            arm(ch);
            below(IknpSender::setup(ch, &mut rng(2)))
        },
    },
    Case {
        name: "IknpReceiver::setup",
        peer: no_peer,
        entry: |ch| {
            arm(ch);
            below(IknpReceiver::setup(ch, &mut rng(3)))
        },
    },
    Case {
        name: "KkChooser::setup",
        peer: no_peer,
        entry: |ch| {
            arm(ch);
            below(KkChooser::setup(ch, &mut rng(4)))
        },
    },
    Case {
        name: "SilentCotReceiver::setup",
        peer: no_peer,
        entry: |ch| {
            arm(ch);
            below(SilentCotReceiver::setup(ch, &mut rng(5)))
        },
    },
    Case {
        name: "YaoGarbler::setup",
        peer: no_peer,
        entry: |ch| {
            arm(ch);
            below(YaoGarbler::setup(ch, &mut rng(6)))
        },
    },
    Case {
        name: "YaoEvaluator::run",
        peer: |ch| {
            YaoGarbler::setup(ch, &mut rng(7)).expect("garbler setup");
        },
        entry: |ch| {
            let mut yao = YaoEvaluator::setup(ch, &mut rng(8)).expect("evaluator setup");
            arm(ch);
            below(yao.run(ch, &circuits::relu_trunc_reshare_vec_circuit(8, 1, 0), &[false; 8]))
        },
    },
    Case {
        name: "triplet_server",
        peer: |ch| {
            KkSender::setup(ch, &mut rng(9)).expect("sender setup");
        },
        entry: |ch| {
            let mut kk =
                FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng(10)).expect("setup");
            arm(ch);
            let (scheme, ring) = (FragmentScheme::binary(), Ring::new(32));
            session(triplet_server(
                ch,
                &mut kk,
                &[1, 0],
                1,
                2,
                1,
                &scheme,
                ring,
                TripletMode::OneBatch,
            ))
        },
    },
    Case {
        name: "SecureClient::offline",
        peer: no_peer,
        entry: |ch| {
            let client = SecureClient::for_model(&tiny_model());
            arm(ch);
            session(client.offline(ch, 1, &mut rng(11)))
        },
    },
];

/// Runs `case` over a fresh link whose peer, after its part, does `link`.
fn run(case: &Case, link: Link) -> Got {
    let (mut ours, mut theirs) = Endpoint::pair(NetworkModel::instant());
    let (hold, released) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            (case.peer)(&mut theirs);
            if link == Link::Silent {
                // Keep the link open until the entry side has failed.
                let _ = released.recv();
            }
        });
        let got = (case.entry)(&mut ours);
        drop(hold);
        got
    })
}

#[test]
fn every_entry_point_has_one_shape_per_failure() {
    let (tx, rx) = mpsc::channel();
    let table = std::thread::spawn(move || {
        let mut wrong = Vec::new();
        for case in CASES {
            for link in [Link::Silent, Link::Cut] {
                let got = run(case, link);
                if got != got.expected(link) {
                    wrong.push(format!("{} under {link:?}: {got:?}", case.name));
                }
            }
        }
        tx.send(wrong).expect("report");
    });
    let wrong = rx.recv_timeout(WATCHDOG).expect("an entry point panicked or hung");
    table.join().expect("the table finished");
    assert!(wrong.is_empty(), "more than one shape per failure:\n{}", wrong.join("\n"));
}
