//! An `adb shell`-flavoured driver for the virtual device: the artifact's
//! measurement workflow (§A.5) as interactive commands.
//!
//! Run with a script on stdin:
//!
//! ```text
//! cargo run --example adb_shell <<'EOF'
//! install 4
//! tap button
//! wm size 1920x1080
//! sleep 6
//! logcat zizhan
//! meminfo
//! EOF
//! ```
//!
//! or with no stdin redirection, a demo script runs.

use droidsim_app::SimpleApp;
use droidsim_device::{Device, HandlingMode};
use droidsim_kernel::SimDuration;
use std::io::{BufRead, IsTerminal};
use std::rc::Rc;

fn run_command(device: &mut Device, installed: &mut Option<Rc<str>>, line: &str) {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        [] | ["#", ..] => {}
        ["install", views] => {
            let views: usize = views.parse().unwrap_or(4);
            match device.install_and_launch(Box::new(SimpleApp::with_views(views)), 40 << 20, 1.0) {
                Ok(component) => {
                    println!("Success: installed and launched {component} ({views} ImageViews)");
                    *installed = Some(component);
                }
                Err(e) => println!("Failure: {e}"),
            }
        }
        ["rotate"] => match device.rotate() {
            Ok(r) => println!("handled via {:?} in {}", r.path, r.latency),
            Err(e) => println!("Failure: {e}"),
        },
        ["wm", "size", "reset"] => match device.wm_size_reset() {
            Ok(r) => println!("handled via {:?} in {}", r.path, r.latency),
            Err(e) => println!("Failure: {e}"),
        },
        ["wm", "size", dims] => {
            let Some((w, h)) = dims.split_once('x') else {
                println!("usage: wm size WxH");
                return;
            };
            match (w.parse(), h.parse()) {
                (Ok(w), Ok(h)) => match device.wm_size(w, h) {
                    Ok(r) => println!("handled via {:?} in {}", r.path, r.latency),
                    Err(e) => println!("Failure: {e}"),
                },
                _ => println!("usage: wm size WxH"),
            }
        }
        ["tap", "button"] => {
            let spec = SimpleApp::with_views(4).button_task();
            match device.start_async_on_foreground(spec) {
                Ok(()) => println!("AsyncTask started (5 s)"),
                Err(e) => println!("Failure: {e}"),
            }
        }
        ["sleep", secs] => {
            let secs: u64 = secs.parse().unwrap_or(1);
            device.advance(SimDuration::from_secs(secs));
            println!("… t = {}", device.now());
        }
        ["logcat"] => {
            for line in device.logcat(None) {
                println!("{line}");
            }
        }
        ["logcat", filter] => {
            for line in device.logcat(Some(filter)) {
                println!("{line}");
            }
        }
        ["meminfo"] => {
            if let Some(component) = installed {
                match device.memory_snapshot(component) {
                    Ok(s) => println!("{component}: TOTAL PSS {:.2} MiB", s.total_mib()),
                    Err(e) => println!("Failure: {e}"),
                }
            } else {
                println!("no app installed");
            }
        }
        ["ps"] => {
            if let Some(component) = installed {
                let p = device.process(component).expect("installed");
                println!(
                    "{component}: {} alive instance(s), crashed: {}",
                    p.thread().alive_instances().len(),
                    p.crash().unwrap_or("no")
                );
            }
        }
        other => println!("unknown command: {other:?}"),
    }
}

fn main() {
    let mut device = Device::new(HandlingMode::rchdroid_default());
    let mut installed = None;

    let stdin = std::io::stdin();
    if stdin.is_terminal() {
        // Demo script: the Fig. 9 workflow.
        println!("(no stdin script; running the Fig. 9 demo workflow)");
        for line in [
            "install 4",
            "tap button",
            "wm size 1920x1080",
            "sleep 6",
            "wm size reset",
            "logcat zizhan",
            "meminfo",
            "ps",
        ] {
            println!("$ {line}");
            run_command(&mut device, &mut installed, line);
        }
        return;
    }
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        println!("$ {line}");
        run_command(&mut device, &mut installed, &line);
    }
}
