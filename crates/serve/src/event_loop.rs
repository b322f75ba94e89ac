//! The epoll pump: one thread, thousands of connections.
//!
//! Everything a connection *means* lives in the sans-I/O
//! [`Connection`](crate::conn::Connection) core; this module is only what
//! is epoll — raw `epoll` syscalls (declared `extern "C"` like
//! [`crate::signal`]'s `signal(2)` hook — std already links libc, so no new
//! dependency), the connection slab, the completion queue, and the
//! read/flush that move bytes between sockets and cores:
//!
//! * **Level-triggered readiness** over nonblocking sockets. Interest is
//!   derived from the core: `EPOLLIN|EPOLLRDHUP` iff it
//!   [`wants_read`](crate::conn::Connection::wants_read), `EPOLLOUT` iff it
//!   has output. A line waiting on its job or on a slow reader is not
//!   subscribed at all, so the loop never spins on an event it would ignore
//!   — backpressure is expressed to the kernel, and through TCP flow
//!   control, to the client.
//! * **Completion queue + self-pipe**: the [`Completer`] handed to every
//!   core pushes the finished [`Response`] onto a mutex'd queue and writes
//!   one byte to a `UnixStream` pair the loop polls — the loop never blocks
//!   on a reply. Tokens carry a generation tag so a completion for a
//!   closed, recycled slot is discarded instead of answering a stranger.
//! * **Drain, not cliff**: shutdown closes the listener, flips admission
//!   and every core to draining (idle lines finish at once, frames get a
//!   typed `ShuttingDown`), keeps pumping lines that are mid-frame for
//!   [`FrameLimits::drain_window`](crate::protocol::FrameLimits), waits for
//!   every pending job's completion (the batcher always replies), flushes,
//!   and half-closes — FIN, never RST.

use crate::conn::{Completer, Connection, Shared};
use crate::metrics::IoGauges;
use crate::protocol::Response;
use crate::signal;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on post-drain flushing toward clients that stopped reading.
const DRAIN_FLUSH_CAP: Duration = Duration::from_secs(5);
/// epoll_wait timeout: the poll tick for the shutdown/SIGINT flags.
const TICK_MS: i32 = 50;
/// Per-readiness-event read cap so one firehose client cannot starve the
/// rest of the loop (level-triggered epoll re-arms what is left).
const READ_BUDGET: usize = 256 << 10;

// --- raw epoll ------------------------------------------------------------

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`. On x86_64 the kernel ABI packs it
/// (no padding between `events` and `data`); elsewhere it is naturally
/// aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Owned epoll instance; closed on drop.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers passed.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn del(&self, fd: i32) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness; returns `(events, data)` pairs (copied out of
    /// the packed kernel structs).
    fn wait(&self, buf: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()> {
        buf.clear();
        let mut events = [EpollEvent::default(); 256];
        // SAFETY: the buffer is valid for `maxevents` entries for the call.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // signal tick; the caller re-polls its flags
            }
            return Err(e);
        }
        for ev in &events[..n as usize] {
            // copy out of the (possibly packed) struct — no references taken
            let (mask, data) = (ev.events, ev.data);
            buf.push((mask, data));
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

// --- connections -------------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

struct Conn {
    stream: TcpStream,
    core: Connection,
    /// Interest mask currently registered with epoll.
    interest: u32,
}

impl Conn {
    /// Subscribe only to what the core can act on: a level-triggered event
    /// nobody handles (RDHUP on a line whose job is pending) would make
    /// `epoll_wait` return at once, forever.
    fn desired_interest(&self) -> u32 {
        let mut ev = 0;
        if self.core.wants_read() {
            ev |= EPOLLIN | EPOLLRDHUP;
        }
        if !self.core.output().is_empty() {
            ev |= EPOLLOUT;
        }
        ev
    }
}

/// Generation-tagged connection slab. A token is `(gen << 32) | slot`;
/// removing a connection bumps the slot's generation, so completions
/// addressed to a closed connection miss instead of hitting its successor.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(conn);
                slot
            }
            None => {
                self.slots.push(Some(conn));
                self.gens.push(0);
                self.slots.len() - 1
            }
        }
    }

    fn token(&self, slot: usize) -> u64 {
        ((self.gens[slot] as u64) << 32) | slot as u64
    }

    fn slot_of(&self, token: u64) -> Option<usize> {
        let slot = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        (slot < self.slots.len() && self.gens[slot] == gen && self.slots[slot].is_some())
            .then_some(slot)
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot).and_then(Option::take)?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        Some(conn)
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    fn any(&self, f: impl Fn(&Conn) -> bool) -> bool {
        self.slots.iter().flatten().any(f)
    }

    fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

// --- completion queue ------------------------------------------------------

/// Batcher → event loop handoff: results queue here and one byte on the
/// self-pipe wakes `epoll_wait`. Push never blocks beyond the mutex.
struct Completions {
    queue: Mutex<Vec<(u64, Response)>>,
    wake: UnixStream,
    io: Arc<IoGauges>,
}

impl Completions {
    fn push(&self, token: u64, response: Response) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((token, response));
        self.io
            .completion_queue_depth
            .fetch_add(1, Ordering::Relaxed);
        // A full pipe is fine: the loop is already overdue for a wake and
        // drains the queue on every iteration regardless.
        let _ = (&self.wake).write(&[1u8]);
    }

    fn drain(&self) -> Vec<(u64, Response)> {
        let drained = std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"));
        self.io
            .completion_queue_depth
            .fetch_sub(drained.len() as u64, Ordering::Relaxed);
        drained
    }
}

// --- the loop --------------------------------------------------------------

/// Everything one readiness event or completion needs besides its slot.
struct Pump {
    ep: Epoll,
    /// `None` once the drain has begun.
    listener: Option<TcpListener>,
    slab: Slab,
    shared: Shared,
    io: Arc<IoGauges>,
    completions: Arc<Completions>,
    done: Completer,
    wake_rx: UnixStream,
}

/// Run the event loop until shutdown (flag, SIGINT, or a `shutdown`
/// frame), then drain. Called on the server's accept thread.
pub(crate) fn run_event_loop(listener: TcpListener, shared: Shared) {
    if let Err(e) = run_inner(listener, shared) {
        eprintln!("c2nn-serve event loop failed: {e}");
    }
}

fn run_inner(listener: TcpListener, shared: Shared) -> io::Result<()> {
    let ep = Epoll::new()?;
    ep.ctl(EPOLL_CTL_ADD, listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    ep.ctl(EPOLL_CTL_ADD, wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;

    let io = Arc::clone(shared.registry.gauges());
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        wake: wake_tx,
        io: Arc::clone(&io),
    });
    let done: Completer = {
        let completions = Arc::clone(&completions);
        Arc::new(move |token, response| completions.push(token, response))
    };
    let mut pump = Pump {
        ep,
        listener: Some(listener),
        slab: Slab::default(),
        shared,
        io,
        completions,
        done,
        wake_rx,
    };
    let shutdown = Arc::clone(&pump.shared.shutdown);
    let mut events: Vec<(u32, u64)> = Vec::new();

    while !shutdown.load(Ordering::SeqCst) && !signal::interrupted() {
        pump.turn(&mut events, TICK_MS)?;
    }

    // --- drain: stop accepting, refuse new work typed, settle in-flight ---
    if let Some(listener) = pump.listener.take() {
        pump.ep.del(listener.as_raw_fd());
    }
    pump.shared.registry.admission().begin_drain();
    shutdown.store(true, Ordering::SeqCst);
    for slot in pump.slab.live_slots() {
        if let Some(conn) = pump.slab.get_mut(slot) {
            conn.core.begin_drain();
        }
        pump.settle(slot, false); // idle lines close immediately
    }
    // Lines mid-frame get the window to finish it; pending jobs and
    // unflushed replies are waited out (completions always arrive) up to
    // the hard cap.
    let window_end = Instant::now() + pump.shared.limits.drain_window;
    loop {
        let busy = pump
            .slab
            .any(|c| c.core.is_pending() || !c.core.output().is_empty());
        let now = Instant::now();
        if pump.slab.is_empty()
            || now >= window_end + DRAIN_FLUSH_CAP
            || (now >= window_end && !busy)
        {
            break;
        }
        pump.turn(&mut events, 20)?;
    }
    // final sweep: one last flush attempt, then FIN everywhere
    for slot in pump.slab.live_slots() {
        if let Some(conn) = pump.slab.get_mut(slot) {
            let _ = flush(conn);
        }
        pump.remove(slot);
    }
    Ok(())
}

impl Pump {
    /// One `epoll_wait` and everything it made ready, then every queued
    /// completion.
    fn turn(&mut self, events: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()> {
        self.ep.wait(events, timeout_ms)?;
        self.io
            .readiness_wakeups_total
            .fetch_add(1, Ordering::Relaxed);
        for &(mask, token) in events.iter() {
            match token {
                TOKEN_LISTENER => self.accept_ready(),
                TOKEN_WAKE => {
                    let mut buf = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
                }
                token => self.on_ready(token, mask),
            }
        }
        for (token, response) in self.completions.drain() {
            // a miss: the connection closed while the job ran; the reply
            // evaporates
            if let Some(slot) = self.slab.slot_of(token) {
                let conn = self.slab.get_mut(slot).expect("slot_of checked");
                conn.core.complete(&response, &self.shared);
                // a pipelining client may have the next frame buffered
                conn.core
                    .advance(token, Instant::now(), &self.shared, &self.done);
                let dead = flush(conn).is_err();
                self.settle(slot, dead);
            }
        }
        Ok(())
    }

    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        // bounded batch per wake so a connect storm cannot starve live conns
        for _ in 0..64 {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let interest = EPOLLIN | EPOLLRDHUP; // a fresh core wants to read
                    let slot = self.slab.insert(Conn {
                        stream,
                        core: Connection::new(self.shared.limits),
                        interest,
                    });
                    let token = self.slab.token(slot);
                    if self.ep.ctl(EPOLL_CTL_ADD, fd, interest, token).is_err() {
                        self.slab.remove(slot);
                        continue;
                    }
                    self.io.accepted_total.fetch_add(1, Ordering::Relaxed);
                    self.io.open_connections.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // transient (e.g. aborted connection)
            }
        }
    }

    /// Move bytes for one ready connection: flush on `EPOLLOUT`, read and
    /// advance the core on `EPOLLIN`/`EPOLLRDHUP`.
    fn on_ready(&mut self, token: u64, mask: u32) {
        let Some(slot) = self.slab.slot_of(token) else {
            return;
        };
        let conn = self.slab.get_mut(slot).expect("slot_of checked");
        let mut dead = mask & (EPOLLERR | EPOLLHUP) != 0;
        if !dead && mask & EPOLLOUT != 0 {
            dead = flush(conn).is_err();
        }
        if !dead && mask & (EPOLLIN | EPOLLRDHUP) != 0 && conn.core.wants_read() {
            dead = read_some(conn).is_err();
            if !dead {
                conn.core
                    .advance(token, Instant::now(), &self.shared, &self.done);
                dead = flush(conn).is_err();
            }
        }
        self.settle(slot, dead);
    }

    /// Close a connection whose socket is `dead` or whose core is finished;
    /// otherwise bring its epoll interest in line with what the core wants.
    fn settle(&mut self, slot: usize, dead: bool) {
        let token = self.slab.token(slot);
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        if dead || conn.core.is_finished() {
            return self.remove(slot);
        }
        let want = conn.desired_interest();
        if want != conn.interest {
            conn.interest = want;
            let _ = self
                .ep
                .ctl(EPOLL_CTL_MOD, conn.stream.as_raw_fd(), want, token);
        }
    }

    fn remove(&mut self, slot: usize) {
        if let Some(conn) = self.slab.remove(slot) {
            self.ep.del(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Write); // FIN, not RST
            self.io.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Read into the core until `WouldBlock`, EOF, or the per-event budget.
fn read_some(conn: &mut Conn) -> io::Result<()> {
    let mut chunk = [0u8; 16384];
    let mut total = 0usize;
    while total < READ_BUDGET {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.core.close_read();
                break;
            }
            Ok(n) => {
                conn.core.feed(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(()) // past the budget, level-triggered epoll re-arms
}

/// Write the core's queued reply bytes until `WouldBlock` or empty.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while !conn.core.output().is_empty() {
        match (&conn.stream).write(conn.core.output()) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.core.consume(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FrameLimits;

    #[test]
    fn slab_tokens_are_generation_tagged() {
        // Conn needs a TcpStream; fabricate one via a loopback listener.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = || {
            let client = TcpStream::connect(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            let conn = Conn {
                stream,
                core: Connection::new(FrameLimits::default()),
                interest: 0,
            };
            (client, conn)
        };
        let mut slab = Slab::default();
        let (_c1, conn) = accept();
        let slot = slab.insert(conn);
        let tok = slab.token(slot);
        assert_eq!(slab.slot_of(tok), Some(slot));
        slab.remove(slot);
        assert_eq!(slab.slot_of(tok), None, "stale token must miss");
        let (_c2, conn) = accept();
        let slot2 = slab.insert(conn);
        assert_eq!(slot2, slot, "slot is recycled");
        assert_ne!(slab.token(slot2), tok, "with a fresh generation");
    }
}
