//! Blocking readiness wait for event loops: one `poll(2)` over the sockets
//! a thread multiplexes plus a [`Waker`] other threads can interrupt it
//! through.
//!
//! The standard library exposes non-blocking sockets but no way to sleep
//! until one of several becomes ready, so an event loop built on
//! [`FrameBuffer`](crate::FrameBuffer) alone has to sweep and sleep. This
//! module is the missing piece and nothing more: std already links the
//! platform C library, so `poll` is declared here rather than pulled in
//! through a dependency. It is level-triggered and stateless — every call
//! names the descriptors it cares about — which suits a loop that sweeps
//! every session after each wake anyway.

use std::ffi::{c_int, c_short};
use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// The wake end of an event loop: any thread may [`wake`](Self::wake) the
/// loop out of [`wait`]. Wakes coalesce — the loop learns *that* it was
/// woken, not how often — so it must re-check whatever the wakers publish
/// (a queue, a drain flag) after every return from `wait`.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// A fresh, unsignalled waker.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the socket pair.
    pub fn new() -> std::io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the next (or current) [`wait`] on this waker return. A full
    /// pipe means a wake is already pending, and any other failure leaves
    /// the loop to its timeout, so errors are not reported.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

/// One socket a [`wait`] watches, and what for. Errors and a hang-up wake
/// the wait whatever was asked.
#[derive(Debug, Clone, Copy)]
pub struct Interest {
    /// The socket's descriptor; it must stay open for the duration of the
    /// call.
    pub fd: RawFd,
    /// Return once the socket has input (EOF included).
    pub readable: bool,
    /// Return once the socket accepts more output.
    pub writable: bool,
}

impl Interest {
    /// `socket`, watched for input iff `readable` and for room to write
    /// iff `writable`.
    pub fn new(socket: &impl AsRawFd, readable: bool, writable: bool) -> Self {
        Interest { fd: socket.as_raw_fd(), readable, writable }
    }

    fn events(self) -> c_short {
        let input = if self.readable { POLLIN } else { 0 };
        let output = if self.writable { POLLOUT } else { 0 };
        input | output
    }
}

/// Blocks until a socket in `sockets` is ready for what its [`Interest`]
/// asks, `waker` (if any) was woken, or `timeout` has passed — whichever
/// comes first. Returns nothing: the call may also return early (a signal,
/// a transient `poll` failure), so the caller sweeps its sockets and comes
/// back. A pending wake is consumed.
pub fn wait(waker: Option<&Waker>, sockets: &[Interest], timeout: Duration) {
    let mut fds: Vec<PollFd> =
        sockets.iter().map(|s| PollFd { fd: s.fd, events: s.events(), revents: 0 }).collect();
    if let Some(w) = waker {
        fds.push(PollFd { fd: w.rx.as_raw_fd(), events: POLLIN, revents: 0 });
    }
    // Round up, so a deadline a fraction of a millisecond away is slept
    // through rather than spun on.
    let millis = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is a live, exclusively borrowed Vec of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and the length passed is its
    // own, so `poll` reads and writes only inside the allocation. `poll`
    // keeps no pointer past its return and treats a closed or invalid
    // descriptor as a reported condition (`POLLNVAL`), not as undefined
    // behaviour.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
    if let (Some(waker), Some(slot)) = (waker, fds.last()) {
        if ready > 0 && slot.revents != 0 {
            waker.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(20);

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dial = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        (dial, accepted)
    }

    #[test]
    fn times_out_when_nothing_is_ready() {
        let (a, _b) = tcp_pair();
        let waker = Waker::new().expect("waker");
        let start = Instant::now();
        wait(Some(&waker), &[Interest::new(&a, true, false)], Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(30), "returned before the timeout");
    }

    #[test]
    fn a_pending_wake_returns_at_once_and_is_consumed() {
        let waker = Waker::new().expect("waker");
        waker.wake();
        waker.wake();
        let start = Instant::now();
        wait(Some(&waker), &[], LONG);
        assert!(start.elapsed() < LONG / 2, "a pending wake must not wait for the timeout");
        // Both wakes coalesced into that one return.
        let start = Instant::now();
        wait(Some(&waker), &[], Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20), "the wake was not consumed");
    }

    #[test]
    fn a_wake_from_another_thread_interrupts_the_wait() {
        let waker = Waker::new().expect("waker");
        let (a, _b) = tcp_pair();
        std::thread::scope(|scope| {
            let (entered_tx, entered_rx) = std::sync::mpsc::channel();
            let waker = &waker;
            scope.spawn(move || {
                entered_rx.recv().expect("waiter started");
                waker.wake();
            });
            let start = Instant::now();
            entered_tx.send(()).expect("signal");
            wait(Some(waker), &[Interest::new(&a, true, false)], LONG);
            assert!(start.elapsed() < LONG / 2, "the wake did not interrupt the wait");
        });
    }

    #[test]
    fn readable_and_writable_sockets_return_at_once() {
        let (a, mut b) = tcp_pair();
        // An idle socket with room in its send buffer is writable.
        let start = Instant::now();
        wait(None, &[Interest::new(&a, false, true)], LONG);
        assert!(start.elapsed() < LONG / 2, "writable socket must not wait");
        // ... but not readable: a wait for input alone runs out.
        let start = Instant::now();
        wait(None, &[Interest::new(&a, true, false)], Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20), "nothing to read yet");
        b.write_all(b"x").expect("write");
        let start = Instant::now();
        wait(None, &[Interest::new(&a, true, false)], LONG);
        assert!(start.elapsed() < LONG / 2, "readable socket must not wait");
    }

    #[test]
    fn peer_close_counts_as_readable() {
        let (a, b) = tcp_pair();
        drop(b);
        let start = Instant::now();
        wait(None, &[Interest::new(&a, true, false)], LONG);
        assert!(start.elapsed() < LONG / 2, "EOF must wake the loop");
    }
}
