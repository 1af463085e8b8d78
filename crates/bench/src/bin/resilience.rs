#![allow(clippy::unwrap_used)]

//! Resilience sweep: packet-loss rate × client strategy → response time,
//! retries, degradation, success rate.
//!
//! The paper tunes strategies for a *reliable* WAN; this binary asks how
//! each strategy holds up when the link is lossy. The interesting tension:
//! the recursive strategy concentrates the whole action in ONE exchange —
//! cheapest when it works, but a single timeout loses everything — while
//! navigational access spreads the action over many small exchanges that
//! ride out loss with cheap per-query retries. The degradation controller
//! (recursive → level-batched) is the middle path, and this sweep shows
//! when it engages.
//!
//! All numbers are deterministic: same seed, same faults, same output.

use pdm_bench::make_session;
use pdm_core::{Session, Strategy};
use pdm_net::{FaultPlan, LinkProfile};

const TRIALS: usize = 20;

fn fresh_session(strategy: Strategy) -> Session {
    make_session(3, 5, 0.6, 512, strategy, LinkProfile::wan_256())
}

struct Row {
    ok: usize,
    degraded: usize,
    retransmits: usize,
    failed_attempts: usize,
    total_time: f64,
}

fn run(strategy: Strategy, loss: f64, seed: u64) -> Row {
    let mut s = fresh_session(strategy);
    if loss > 0.0 {
        s.set_fault_plan(FaultPlan::lossy(seed, loss).with_server_error_rate(loss / 10.0));
    }
    let mut row = Row {
        ok: 0,
        degraded: 0,
        retransmits: 0,
        failed_attempts: 0,
        total_time: 0.0,
    };
    for _ in 0..TRIALS {
        match s.multi_level_expand(1) {
            Ok(out) => {
                row.ok += 1;
                if out.degraded {
                    row.degraded += 1;
                }
                row.retransmits += out.stats.retransmits;
                row.failed_attempts += out.stats.failed_attempts;
                row.total_time += out.stats.response_time();
            }
            Err(_) => {
                // the failed action's waiting is still real time the user lost
                row.failed_attempts += s.stats().failed_attempts;
                row.total_time += s.stats().response_time();
            }
        }
    }
    row
}

fn main() {
    println!("resilience sweep: multi-level expand, δ=3 β=5 γ=0.6, wan_256, {TRIALS} trials/cell");
    println!("(fault plan: symmetric packet loss + loss/10 transient server errors; seed fixed)");
    println!();
    println!(
        "{:<12}{:>8}{:>10}{:>10}{:>10}{:>12}{:>12}",
        "strategy", "loss", "success", "degraded", "retrans", "failed att", "mean T [s]"
    );
    for strategy in [Strategy::LateEval, Strategy::EarlyEval, Strategy::Recursive] {
        for (i, loss) in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4].into_iter().enumerate() {
            let row = run(strategy, loss, 0xC0FFEE + i as u64);
            let mean_t = row.total_time / TRIALS as f64;
            println!(
                "{:<12}{:>8.2}{:>9}%{:>10}{:>10}{:>12}{:>12.2}",
                format!("{strategy:?}"),
                loss,
                100 * row.ok / TRIALS,
                row.degraded,
                row.retransmits,
                row.failed_attempts,
                mean_t
            );
        }
        println!();
    }
    println!(
        "Reading the table: navigational strategies absorb loss as retransmits\n\
         (many small exchanges, each cheap to retry) at their usual latency-\n\
         dominated cost. The recursive strategy's single exchange survives\n\
         pure packet loss through retransmits and stays an order of magnitude\n\
         cheaper — per-packet loss is the failure mode retransmits fix."
    );
    println!();

    // -------------------------------------------------------------------
    // Harsh link: stall-dominated faults (whole attempts time out instead
    // of single packets dropping). This is where attempt-level retries and
    // the degradation controller earn their keep.
    // -------------------------------------------------------------------
    let stall = 0.35;
    println!("harsh link: stall rate {stall}, timeout 10 s, 2 attempts per exchange");
    println!(
        "{:<12}{:>10}{:>10}{:>12}{:>12}",
        "strategy", "success", "degraded", "failed att", "mean T [s]"
    );
    for strategy in [Strategy::LateEval, Strategy::EarlyEval, Strategy::Recursive] {
        let mut s = fresh_session(strategy);
        s.set_fault_plan(
            FaultPlan::none()
                .with_seed(0xBADCAB)
                .with_stall_rate(stall)
                .with_timeout(10.0),
        );
        s.set_retry_policy(pdm_core::RetryPolicy::default_wan().with_max_attempts(2));
        let mut row = Row {
            ok: 0,
            degraded: 0,
            retransmits: 0,
            failed_attempts: 0,
            total_time: 0.0,
        };
        for _ in 0..TRIALS {
            match s.multi_level_expand(1) {
                Ok(out) => {
                    row.ok += 1;
                    if out.degraded {
                        row.degraded += 1;
                    }
                    row.failed_attempts += out.stats.failed_attempts;
                    row.total_time += out.stats.response_time();
                }
                Err(_) => {
                    row.failed_attempts += s.stats().failed_attempts;
                    row.total_time += s.stats().response_time();
                }
            }
        }
        println!(
            "{:<12}{:>9}%{:>10}{:>12}{:>12.2}",
            format!("{strategy:?}"),
            100 * row.ok / TRIALS,
            row.degraded,
            row.failed_attempts,
            row.total_time / TRIALS as f64
        );
    }
    println!();
    println!(
        "When whole attempts stall, an action spanning many exchanges has to\n\
         win every one of them — navigational success collapses. The recursive\n\
         strategy risks only one exchange, and when that fails the controller\n\
         degrades to level-batched expansion (a handful of exchanges), keeping\n\
         availability high; after repeated failures the breaker skips the\n\
         doomed recursive probe entirely."
    );
}
