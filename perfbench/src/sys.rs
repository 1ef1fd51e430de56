//! Host facilities the benchmark needs that `std` does not expose: a child's
//! peak RSS (`wait4`), per-thread CPU time, and the load average. Declared
//! directly against libc, which every Rust program on Linux already links.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getloadavg(loadavg: *mut f64, nelem: i32) -> i32;
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is supported on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One-minute load average, or `-1` when the host does not report it.
pub fn loadavg_1m() -> f64 {
    let mut avg = [0.0f64; 1];
    // SAFETY: `avg` has room for the one element requested.
    let n = unsafe { getloadavg(avg.as_mut_ptr(), 1) };
    if n == 1 {
        avg[0]
    } else {
        -1.0
    }
}

/// Outcome of one timed child process.
pub struct ChildRun {
    /// Host wall time from spawn to reaped exit.
    pub wall_s: f64,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mib: f64,
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
}

/// Run `cmd` to completion with stdout and stderr sent to files, timing it
/// from spawn to exit and collecting its peak RSS.
pub fn run_timed(mut cmd: Command, stdout: &Path, stderr: &Path) -> Result<ChildRun, String> {
    let out = std::fs::File::create(stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let err = std::fs::File::create(stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
    cmd.stdout(out)
        .stderr(err)
        .stdin(std::process::Stdio::null());
    let t0 = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    let rc = loop {
        // SAFETY: `status` and `ru` are valid and writable for the call;
        // `pid` is our own unreaped child, which `std` never waits on because
        // the `Child` handle is dropped without calling `wait`.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc != -1 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break rc;
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    drop(child);
    if rc != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(ChildRun {
        wall_s,
        peak_rss_mib: ru.ru_maxrss as f64 / 1024.0,
        code,
    })
}

/// 64-bit FNV-1a over a byte stream, continuing from `state`
/// (start with [`FNV_OFFSET`]).
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest of the given files' contents, in order.
pub fn digest_files(paths: &[&Path]) -> Result<String, String> {
    let mut h = FNV_OFFSET;
    for p in paths {
        let bytes = std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))?;
        h = fnv1a(h, &bytes);
    }
    Ok(format!("{h:016x}"))
}
