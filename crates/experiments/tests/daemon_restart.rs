//! Kill/restart durability of the real `droidsimd` binary.
//!
//! A daemon is spawned with a journal directory, loaded with a batch of
//! `table5` jobs, and SIGKILLed while at least one job is still running.
//! A second daemon on the same journal must resume every acknowledged
//! incomplete job and settle all of them to the digest an uninterrupted
//! `jobs=1` in-process run produces — the acceptance oracle for the
//! whole service.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use droidsim_daemon::{Admission, Client, JobKind, JobSpec, JobState, ShutdownMode};
use rch_experiments::daemon_exec::reference_digest;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("droidsimd-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(socket: &PathBuf, journal: &PathBuf) -> Child {
    Command::new(env!("CARGO_BIN_EXE_droidsimd"))
        .arg("--socket")
        .arg(socket)
        .arg("--journal-dir")
        .arg(journal)
        .args(["--workers", "1", "--tick-ms", "10"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn droidsimd")
}

fn stat(fields: &[(String, String)], key: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("stats field {key:?} missing or non-numeric"))
}

#[test]
fn killed_daemon_resumes_acknowledged_jobs_to_the_reference_digest() {
    let dir = scratch();
    let socket = dir.join("droidsimd.sock");
    let journal = dir.join("journal");

    let mut child = spawn_daemon(&socket, &journal);
    let mut client = Client::new(&socket).with_deadline(Duration::from_secs(10));

    // Table5 over 4 to 8 apps takes long enough on one worker that the
    // kill below lands mid-backlog. The seed reaches no app run, so the
    // sizes differ to give every job its own digest: a daemon that
    // settled one job with another's result fails the check below.
    let specs: Vec<JobSpec> = (0..5)
        .map(|i| {
            JobSpec::new(JobKind::Table5 { apps: 4 + i })
                .with_seed(7_000 + i as u64)
                .with_tag(format!("restart-{i}"))
        })
        .collect();
    let expected: Vec<u64> = specs.iter().map(|s| reference_digest(s).unwrap()).collect();
    for (i, a) in expected.iter().enumerate() {
        assert!(
            !expected[i + 1..].contains(a),
            "jobs share a digest: {expected:x?}"
        );
    }
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| match client.submit(spec).unwrap() {
            Admission::Accepted { id, .. } => id,
            Admission::Rejected { reason } => panic!("rejected: {reason}"),
            Admission::Duplicate { id } => panic!("unexpected duplicate: {id}"),
        })
        .collect();

    // Kill only once the backlog is genuinely mixed: at least one job
    // done (its terminal state journaled) and at least one still open.
    // A job over 4 to 8 apps takes a few milliseconds, so the mixed
    // window after the first completion lasts only about four jobs'
    // time; the poll must be finer than that or it can step over it.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            Instant::now() < deadline,
            "jobs never reached a mixed state"
        );
        let (mut done, mut open) = (0, 0);
        for &id in &ids {
            match client.status(id).unwrap().state {
                JobState::Done { .. } => done += 1,
                _ => open += 1,
            }
        }
        if done >= 1 && open >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_file(&socket);

    let mut child = spawn_daemon(&socket, &journal);
    let mut client = Client::new(&socket).with_deadline(Duration::from_secs(10));
    let resumed = stat(&client.stats().unwrap(), "resumed");
    assert!(resumed >= 1, "restart resumed nothing despite open jobs");

    // Every acknowledged job — completed in life one or resumed in life
    // two — must settle Done with the jobs=1 reference digest.
    for (&expected, &id) in expected.iter().zip(&ids) {
        let deadline = Instant::now() + Duration::from_secs(120);
        let digest = loop {
            let status = client.wait(id, Duration::from_secs(5)).unwrap();
            match status.state {
                JobState::Done { digest } => break digest,
                ref s if s.is_terminal() => panic!("job {id} settled {s:?}"),
                _ => assert!(Instant::now() < deadline, "job {id} never settled"),
            }
        };
        assert_eq!(digest, expected, "job {id} diverged from the reference");
    }

    client.shutdown(ShutdownMode::Drain).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "droidsimd exited {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
