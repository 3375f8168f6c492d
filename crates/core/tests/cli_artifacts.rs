//! CLI regression tests for the artifact-carrying subcommands: extract
//! must persist the augmenter it actually used, verify must load that
//! augmenter (never refit at a hard-coded noise level), legacy artifact
//! dirs must fail with a clear message, sweep must be cache-warm
//! deterministic regardless of thread count, and `audit` must refuse
//! flags it does not know, survive a reader that hangs up early, and
//! leave a chain `--recover` refuses untouched.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use veri_hvac::audit::{
    AuditChain, ChainConfig, ChainRecord, Payload, Sha256, CHAIN_FORMAT, GENESIS_PREV_HASH,
};

const BIN: &str = env!("CARGO_BIN_EXE_veri_hvac");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veri-hvac-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn veri_hvac binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn verify_uses_the_persisted_augmenter_not_a_hardcoded_refit() {
    let out_dir = temp_dir("extract-verify");
    let out = out_dir.to_str().unwrap();

    // Extract at a noise level that differs from both the config
    // default (0.01) and the old hard-coded refit (0.01): if verify
    // refits instead of loading, the notice below cannot appear.
    let extract = run(&[
        "extract",
        "--city",
        "pittsburgh",
        "--noise",
        "0.05",
        "--out-dir",
        out,
        "--quiet",
    ]);
    assert!(
        extract.status.success(),
        "extract failed: {}",
        stderr(&extract)
    );
    let manifest = std::fs::read_to_string(out_dir.join("manifest.json")).unwrap();
    assert!(
        manifest.contains("\"noise_level\":0.05"),
        "manifest must record the extraction noise level: {manifest}"
    );
    assert!(out_dir.join("augmenter.aug").is_file());

    let verify = run(&["verify", "--artifacts", out, "--samples", "200", "--quiet"]);
    assert!(
        verify.status.success(),
        "verify failed: {}",
        stderr(&verify)
    );
    let text = stdout(&verify);
    assert!(
        text.contains("using persisted augmenter (noise 0.05)"),
        "verify must use the manifest's augmenter: {text}"
    );

    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn verify_rejects_legacy_artifact_dirs_with_a_clear_error() {
    let src_dir = temp_dir("legacy-src");
    let src = src_dir.to_str().unwrap();
    let extract = run(&[
        "extract",
        "--city",
        "pittsburgh",
        "--out-dir",
        src,
        "--quiet",
    ]);
    assert!(
        extract.status.success(),
        "extract failed: {}",
        stderr(&extract)
    );

    // A pre-manifest layout: policy + model only.
    let legacy_dir = temp_dir("legacy");
    std::fs::create_dir_all(&legacy_dir).unwrap();
    for file in ["policy.dtree", "model.dynmodel"] {
        std::fs::copy(src_dir.join(file), legacy_dir.join(file)).unwrap();
    }

    let verify = run(&[
        "verify",
        "--artifacts",
        legacy_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(!verify.status.success(), "legacy dir must be rejected");
    let text = stderr(&verify);
    assert!(
        text.contains("predates persisted augmenters"),
        "error must explain the legacy layout: {text}"
    );

    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&legacy_dir);
}

#[test]
fn sweep_is_warm_cache_resumable_and_thread_count_invariant() {
    let cache_dir = temp_dir("sweep-cache");
    let cache = cache_dir.to_str().unwrap();
    let cold_out_dir = temp_dir("sweep-cold");
    let warm_out_dir = temp_dir("sweep-warm");
    let single_out_dir = temp_dir("sweep-single");

    let sweep = |threads: &str, out: &PathBuf| {
        run(&[
            "sweep",
            "--cities",
            "pittsburgh",
            "--seeds",
            "0..2",
            "--threads",
            threads,
            "--cache-dir",
            cache,
            "--out",
            out.to_str().unwrap(),
            "--quiet",
        ])
    };

    let cold = sweep("2", &cold_out_dir);
    assert!(
        cold.status.success(),
        "cold sweep failed: {}",
        stderr(&cold)
    );
    let cold_summary = std::fs::read_to_string(cold_out_dir.join("sweep-summary.json")).unwrap();
    assert!(
        cold_summary.contains("\"cache_hits\":0"),
        "cold sweep must miss everything: {cold_summary}"
    );
    assert!(cold_out_dir.join("run-pittsburgh-seed0.json").is_file());
    assert!(cold_out_dir.join("run-pittsburgh-seed1.json").is_file());

    // Second pass over the same cache: every stage of every run hits.
    let warm = sweep("2", &warm_out_dir);
    assert!(
        warm.status.success(),
        "warm sweep failed: {}",
        stderr(&warm)
    );
    let warm_summary = std::fs::read_to_string(warm_out_dir.join("sweep-summary.json")).unwrap();
    assert!(
        warm_summary.contains("\"cache_misses\":0"),
        "warm sweep must hit everything: {warm_summary}"
    );

    // Reports carry no wall times: output is byte-identical whether the
    // pool has one worker or several.
    let single = sweep("1", &single_out_dir);
    assert!(
        single.status.success(),
        "single-thread sweep failed: {}",
        stderr(&single)
    );
    let single_summary =
        std::fs::read_to_string(single_out_dir.join("sweep-summary.json")).unwrap();
    assert_eq!(
        warm_summary, single_summary,
        "sweep output must not depend on --threads"
    );

    // Verification results are identical cold and warm, and every run
    // appears in the aggregate in (city, seed) order.
    let strip_cache = |s: &str| {
        s.replace("\"cache_hits\":0", "")
            .replace("\"cache_hits\":12", "")
            .replace("\"cache_misses\":0", "")
            .replace("\"cache_misses\":12", "")
            .replace("\"cache_hits\":6", "")
            .replace("\"cache_misses\":6", "")
    };
    assert_eq!(strip_cache(&cold_summary), strip_cache(&warm_summary));

    for dir in [&cache_dir, &cold_out_dir, &warm_out_dir, &single_out_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Writes a small sealed chain that audits green without a policy.
fn sealed_chain(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("chain.jsonl");
    let chain = AuditChain::create(&path, &"ab".repeat(32), "", ChainConfig::default()).unwrap();
    for _ in 0..4 {
        chain.append_transition("normal", "hold").unwrap();
        chain.append_transition("hold", "normal").unwrap();
    }
    chain.seal().unwrap();
    path
}

#[test]
fn audit_rejects_a_flag_it_does_not_know_and_names_it() {
    let dir = temp_dir("unknown-flag");
    let chain = sealed_chain(&dir);
    let chain = chain.to_str().unwrap();
    let clean = run(&["audit", "--chain", chain, "--quiet"]);
    assert!(clean.status.success(), "{}", stderr(&clean));

    // Global flags ride along on every subcommand.
    let global = run(&["audit", "--chain", chain, "--verbose", "--json"]);
    assert!(global.status.success(), "{}", stderr(&global));

    let stale = run(&["audit", "--chain", chain, "--compiled", "x"]);
    assert!(!stale.status.success(), "unknown flag must fail the run");
    assert!(
        stderr(&stale).contains("--compiled"),
        "the error must name the flag: {}",
        stderr(&stale)
    );
    assert!(
        stdout(&stale).is_empty(),
        "no report for a refused run: {}",
        stdout(&stale)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_report_to_a_closed_pipe_exits_quietly() {
    let dir = temp_dir("broken-pipe");
    let chain = sealed_chain(&dir);
    // The read end is gone before the child writes a byte, so every
    // write to its stdout fails with EPIPE.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    for extra in [None, Some("--json")] {
        let mut args = vec!["audit", "--chain", chain.to_str().unwrap()];
        args.extend(extra);
        let out = Command::new(BIN)
            .args(&args)
            .stdout(writer.try_clone().unwrap())
            .stderr(Stdio::piped())
            .output()
            .expect("spawn veri_hvac binary");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
        assert!(out.status.success(), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_recover_refuses_a_chain_with_a_bad_checkpoint_and_leaves_it_unchanged() {
    let dir = temp_dir("recover-bad-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chain.jsonl");
    // Hash-consistent and linked, but the checkpoint claims 5 decisions
    // over a prefix that has none.
    let genesis = ChainRecord::new(
        "genesis",
        0,
        0,
        GENESIS_PREV_HASH.to_string(),
        Payload::Genesis {
            format: CHAIN_FORMAT.to_string(),
            policy_hash: "ab".repeat(32),
            certificate_id: String::new(),
            crate_version: "0.1.0".to_string(),
        },
    );
    let mut digest = Sha256::new();
    digest.update(genesis.record_hash.as_bytes());
    digest.update(b"\n");
    let checkpoint = ChainRecord::new(
        "checkpoint",
        1,
        1,
        genesis.record_hash.clone(),
        Payload::Checkpoint {
            records: 1,
            decisions: 5,
            transitions: 0,
            digest: digest.finalize_hex(),
        },
    );
    let text = genesis.to_line() + &checkpoint.to_line();
    std::fs::write(&path, &text).unwrap();

    let out = run(&["audit", "--chain", path.to_str().unwrap(), "--recover"]);
    assert!(!out.status.success(), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("check `checkpoints`"),
        "the refusal must name the check: {}",
        stderr(&out)
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        text,
        "a refused recovery must not modify the chain"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
