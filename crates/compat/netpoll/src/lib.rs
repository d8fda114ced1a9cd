//! Offline stand-in for a readiness-polling crate (`mio`-shaped, much
//! smaller): level-triggered I/O event notification over raw file
//! descriptors, built on thin `extern "C"` syscall shims so the
//! workspace stays `std`-only.
//!
//! Three types make up the whole API:
//!
//! - [`Poller`] — register file descriptors with an [`Interest`]
//!   (readable and/or writable) and a caller-chosen `u64` token, then
//!   [`Poller::wait`] for [`Event`]s. On Linux this is epoll
//!   (`epoll_create1`/`epoll_ctl`/`epoll_wait`); on other unixes it
//!   falls back to a `poll(2)`-shaped emulation over a registration
//!   table. Both are **level-triggered**: an event repeats every wait
//!   until the condition is consumed.
//! - [`Waker`] — a nonblocking self-pipe registered with the poller so
//!   any thread can interrupt a blocked [`Poller::wait`] (worker pools
//!   use this to hand completions back to the event loop).
//! - [`Event`] — the readiness report: token plus
//!   readable/writable/error/hangup flags.
//!
//! Everything is safe to share across threads (`Poller::wait` from one
//! thread while another registers is *not* supported by the fallback
//! backend and not needed here: one reactor thread owns the poller,
//! other threads only touch the [`Waker`]).

#![forbid(unsafe_op_in_unsafe_fn)]

#[cfg(unix)]
pub use imp::{Event, Interest, Poller, Waker};

#[cfg(not(unix))]
compile_error!("netpoll supports unix targets only (the workspace is developed on Linux)");

#[cfg(unix)]
mod imp {
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// Which readiness conditions a registration asks for.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub struct Interest {
        /// Report when a read would not block (data, EOF, or error).
        pub readable: bool,
        /// Report when a write would not block.
        pub writable: bool,
    }

    impl Interest {
        /// Readable only.
        pub const READABLE: Interest = Interest {
            readable: true,
            writable: false,
        };
        /// Writable only.
        pub const WRITABLE: Interest = Interest {
            readable: false,
            writable: true,
        };
        /// Readable and writable.
        pub const BOTH: Interest = Interest {
            readable: true,
            writable: true,
        };
        /// Neither — keeps the fd registered but reports nothing
        /// (used to park a connection under backpressure).
        pub const NONE: Interest = Interest {
            readable: false,
            writable: false,
        };
    }

    /// One readiness report from [`Poller::wait`].
    #[derive(Clone, Copy, Debug)]
    pub struct Event {
        /// The token supplied at registration.
        pub token: u64,
        /// A read would not block.
        pub readable: bool,
        /// A write would not block.
        pub writable: bool,
        /// Error condition on the fd (always reported, never masked).
        pub error: bool,
        /// Peer hung up (always reported, never masked).
        pub hangup: bool,
    }

    // ---------------------------------------------------------------
    // Shared syscall shims (both backends need pipes + read/write).
    // ---------------------------------------------------------------

    mod sys_common {
        use std::os::raw::{c_int, c_void};

        extern "C" {
            pub fn close(fd: c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        }
    }

    fn last_os_error() -> io::Error {
        io::Error::last_os_error()
    }

    /// A self-pipe that interrupts a blocked [`Poller::wait`] from any
    /// thread. Create it with [`Waker::new`], which registers the read
    /// end on the poller under the given token; a wait that returns an
    /// event with that token should call [`Waker::drain`] and then
    /// process whatever cross-thread state the wake signalled.
    #[derive(Debug)]
    pub struct Waker {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    // Raw fds are plain integers, so `Waker` is `Send + Sync`; `wake`
    // and `drain` are single syscalls, safe from any thread.

    impl Waker {
        /// Build the pipe pair and register its read end with `poller`
        /// under `token`.
        pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
            let (read_fd, write_fd) = nonblocking_pipe()?;
            let waker = Waker { read_fd, write_fd };
            poller.register(read_fd, token, Interest::READABLE)?;
            Ok(waker)
        }

        /// Make the next (or current) [`Poller::wait`] return. Never
        /// blocks: a full pipe already guarantees a pending wake, so
        /// `EAGAIN` is success.
        pub fn wake(&self) {
            let byte = 1u8;
            // EAGAIN (pipe full) and EPIPE/EBADF (poller torn down
            // first during shutdown) are all fine: either a wake is
            // already pending or nobody is waiting anymore.
            // SAFETY: `byte` is a live local, readable for the one byte
            // passed; `write_fd` belongs to this waker and stays open
            // until `drop`.
            unsafe {
                sys_common::write(self.write_fd, (&byte as *const u8).cast(), 1);
            }
        }

        /// Consume pending wake bytes so level-triggered polling stops
        /// reporting the waker readable.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                // SAFETY: `buf` is a live local, writable for the
                // `buf.len()` bytes passed; `read_fd` belongs to this
                // waker and stays open until `drop`.
                let n =
                    unsafe { sys_common::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: `nonblocking_pipe` opened both fds for this waker
            // alone; they are closed once, here, and never used after.
            unsafe {
                sys_common::close(self.read_fd);
                sys_common::close(self.write_fd);
            }
        }
    }

    // ---------------------------------------------------------------
    // Linux backend: epoll.
    // ---------------------------------------------------------------

    #[cfg(target_os = "linux")]
    mod sys {
        use std::os::raw::c_int;

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        pub const O_NONBLOCK: c_int = 0o4000;
        pub const O_CLOEXEC: c_int = 0o2000000;

        // The kernel ABI packs this struct on x86 so the 64-bit data
        // field sits at offset 4; other architectures use natural
        // alignment.
        #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
        #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        }
    }

    #[cfg(target_os = "linux")]
    fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is the two-`c_int` array `pipe2` fills in.
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok((fds[0], fds[1]))
    }

    /// Level-triggered readiness poller over raw fds.
    #[cfg(target_os = "linux")]
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    #[cfg(target_os = "linux")]
    impl Poller {
        /// Create the poller (one `epoll` instance).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: the call takes no pointers, only a flag value.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn mask(interest: Interest) -> u32 {
            let mut events = sys::EPOLLRDHUP;
            if interest.readable {
                events |= sys::EPOLLIN;
            }
            if interest.writable {
                events |= sys::EPOLLOUT;
            }
            events
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: Self::mask(interest),
                data: token,
            };
            // SAFETY: `ev` is a live local with the kernel's
            // `epoll_event` layout, read only during the call.
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(last_os_error());
            }
            Ok(())
        }

        /// Start watching `fd` with `interest`; events carry `token`.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change the interest (and/or token) of a watched fd.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stop watching `fd`. Closing the fd also deregisters it, but
        /// an explicit call keeps both backends' bookkeeping identical.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // A non-null event pointer keeps pre-2.6.9 kernel ABI happy.
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`: `ev` is a live local `epoll_event`.
            let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(last_os_error());
            }
            Ok(())
        }

        /// Block until at least one event arrives or `timeout` passes
        /// (`None` = wait forever). Ready events are appended to
        /// `events` (which is cleared first); returns the count.
        /// `EINTR` is retried internally.
        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            const CAP: usize = 1024;
            let mut buf = [sys::EpollEvent { events: 0, data: 0 }; CAP];
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            loop {
                // SAFETY: `buf` has `CAP` slots and the kernel writes at
                // most `maxevents = CAP` of them.
                let n =
                    unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, timeout_ms) };
                if n < 0 {
                    let err = last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                for slot in buf.iter().take(n as usize) {
                    // Copy out of the (possibly packed) struct before
                    // taking references.
                    let bits = slot.events;
                    let token = slot.data;
                    events.push(Event {
                        token,
                        readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        error: bits & sys::EPOLLERR != 0,
                        hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                    });
                }
                return Ok(events.len());
            }
        }
    }

    #[cfg(target_os = "linux")]
    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` belongs to this poller alone; it is closed
            // once, here, and never used after.
            unsafe {
                sys_common::close(self.epfd);
            }
        }
    }

    // ---------------------------------------------------------------
    // Fallback backend for non-Linux unixes: poll(2) over a
    // registration table. Functionally identical (level-triggered),
    // O(n) per wait — fine for the session counts a dev laptop sees.
    // ---------------------------------------------------------------

    #[cfg(not(target_os = "linux"))]
    mod sys {
        use std::os::raw::{c_int, c_ulong};

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;
        pub const POLLERR: i16 = 0x008;
        pub const POLLHUP: i16 = 0x010;

        pub const F_SETFL: c_int = 4;
        pub const F_GETFL: c_int = 3;
        // BSD/macOS value; the Linux build never compiles this module.
        pub const O_NONBLOCK: c_int = 0x0004;

        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: i16,
            pub revents: i16,
        }

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
            pub fn pipe(fds: *mut c_int) -> c_int;
            pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is the two-`c_int` array `pipe` fills in.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error());
        }
        for fd in fds {
            // SAFETY: `fcntl` with `F_GETFL`/`F_SETFL` takes no pointers.
            let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
            // SAFETY: as above.
            if flags < 0 || unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) } < 0 {
                let err = last_os_error();
                // SAFETY: both fds were just opened here and are closed
                // once before the error returns.
                unsafe {
                    sys_common::close(fds[0]);
                    sys_common::close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok((fds[0], fds[1]))
    }

    /// Level-triggered readiness poller over raw fds.
    #[cfg(not(target_os = "linux"))]
    #[derive(Debug)]
    pub struct Poller {
        registered: std::sync::Mutex<std::collections::HashMap<RawFd, (u64, Interest)>>,
    }

    #[cfg(not(target_os = "linux"))]
    impl Poller {
        /// Create the poller (a registration table for `poll(2)`).
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: std::sync::Mutex::new(std::collections::HashMap::new()),
            })
        }

        fn table(
            &self,
        ) -> std::sync::MutexGuard<'_, std::collections::HashMap<RawFd, (u64, Interest)>> {
            self.registered
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        /// Start watching `fd` with `interest`; events carry `token`.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.table().insert(fd, (token, interest)).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            Ok(())
        }

        /// Change the interest (and/or token) of a watched fd.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            match self.table().get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        /// Stop watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            match self.table().remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        /// Block until at least one event arrives or `timeout` passes.
        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let mut fds: Vec<sys::PollFd> = Vec::new();
            let mut tokens: Vec<u64> = Vec::new();
            for (&fd, &(token, interest)) in self.table().iter() {
                let mut mask = 0i16;
                if interest.readable {
                    mask |= sys::POLLIN;
                }
                if interest.writable {
                    mask |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd,
                    events: mask,
                    revents: 0,
                });
                tokens.push(token);
            }
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            loop {
                // SAFETY: `fds` is a live `Vec` of `fds.len()` pollfd
                // entries, the count passed.
                let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as _, timeout_ms) };
                if n < 0 {
                    let err = last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                for (slot, &token) in fds.iter().zip(&tokens) {
                    let bits = slot.revents;
                    if bits == 0 {
                        continue;
                    }
                    events.push(Event {
                        token,
                        readable: bits & (sys::POLLIN | sys::POLLHUP) != 0,
                        writable: bits & sys::POLLOUT != 0,
                        error: bits & sys::POLLERR != 0,
                        hangup: bits & sys::POLLHUP != 0,
                    });
                }
                return Ok(events.len());
            }
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[test]
    fn empty_wait_times_out() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "no connection yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn interest_changes_are_respected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // An idle socket with write interest is immediately writable.
        poller
            .register(server_side.as_raw_fd(), 3, Interest::BOTH)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        assert!(!events.iter().any(|e| e.readable), "nothing to read yet");

        // Drop all interest: nothing reported even with pending data.
        poller
            .reregister(server_side.as_raw_fd(), 3, Interest::NONE)
            .unwrap();
        (&client).write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "parked fd must stay silent");

        // Restore read interest: the buffered byte is reported
        // (level-triggered).
        poller
            .reregister(server_side.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);

        poller.deregister(server_side.as_raw_fd()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn waker_interrupts_wait_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, 99).unwrap());

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // double-wake coalesces into one readable pipe
        });

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 99);
        waker.drain();
        handle.join().unwrap();

        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained waker must go quiet");
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server_side.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        drop(client);

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "EOF must wake readers"
        );

        // Reading must observe EOF, not block.
        let mut buf = [0u8; 8];
        let mut stream = server_side;
        assert_eq!(stream.read(&mut buf).unwrap(), 0);
    }
}
