//! The `seco` binary refuses a flag it does not know, naming it,
//! instead of reading it as query text.

use std::process::Command;

#[test]
fn an_unknown_flag_fails_and_names_itself() {
    let query = "Select Movie1 As M where M.Language=\"en\" top 1";
    for args in [
        &["optimize", "--workers", "4", query][..],
        &["run", "--columnar", "off", query][..],
        &["run", "--exec-workers", "4", query][..],
        &["run", "--parallel", query][..],
        &["serve", "--exec-workers", "4"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_seco"))
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains(&format!("`{}`", args[1])),
            "{args:?}: {stderr}"
        );
    }
}
