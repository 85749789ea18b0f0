//! Integration test for the §5 case study (experiment E3): the
//! notification/status-bar deadlock freezes the phone once, is recorded, and
//! never reoccurs after a reboot — across layers: the `android` model
//! (phone, services) on the `dalvik` model (VM) on dimmunix-core (engine).

use dimmunix::android::{NotificationScenario, Phone};
use dimmunix::core::{Config, SignatureKind};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dimmunix-it-{tag}-{}", std::process::id()))
}

#[test]
fn notification_deadlock_freezes_once_then_never_again() {
    let root = temp_dir("case-study");
    let _ = std::fs::remove_dir_all(&root);
    let mut demonstrated = false;
    for seed in 0..400u64 {
        let dir = root.join(format!("seed{seed}"));
        let mut phone = Phone::new(Config::default(), &dir);
        phone.set_scheduler_seed(seed);
        phone.install_notification_test_app(NotificationScenario::default());
        let (first, process) = phone
            .launch_and_inspect("com.example.notificationtest", 300_000)
            .unwrap();
        if !first.frozen {
            continue;
        }
        // The signature was recorded and is a genuine deadlock signature.
        assert!(first.deadlocks_detected >= 1);
        let history = process.engine().history().clone();
        assert!(!history.is_empty());
        assert!(history
            .iter()
            .any(|(_, s)| s.kind() == SignatureKind::Deadlock && s.arity() == 2));

        // After a reboot the persisted antibody prevents every reoccurrence.
        phone.reboot();
        for launch in 0..4 {
            let report = phone
                .launch("com.example.notificationtest", 600_000)
                .unwrap();
            assert!(!report.frozen, "seed {seed}, launch {launch} froze again");
            assert_eq!(report.deadlocks_detected, 0);
        }
        demonstrated = true;
        break;
    }
    let _ = std::fs::remove_dir_all(&root);
    assert!(demonstrated, "the case-study freeze must be reproducible");
}

#[test]
fn signature_mentions_the_two_services() {
    // Whatever seed freezes, the recorded outer positions must point at the
    // two service methods the paper names.
    let root = temp_dir("signature-services");
    let _ = std::fs::remove_dir_all(&root);
    for seed in 0..400u64 {
        let mut phone = Phone::new(Config::default(), root.join(format!("s{seed}")));
        phone.set_scheduler_seed(seed);
        phone.install_notification_test_app(NotificationScenario::default());
        let (first, process) = phone
            .launch_and_inspect("com.example.notificationtest", 300_000)
            .unwrap();
        if !first.frozen {
            continue;
        }
        let history = process.engine().history();
        let text = history.to_text();
        assert!(
            text.contains("NotificationManagerService.enqueueNotificationWithTag"),
            "signature text: {text}"
        );
        assert!(
            text.contains("StatusBarService$H.handleMessage"),
            "signature text: {text}"
        );
        let _ = std::fs::remove_dir_all(&root);
        return;
    }
    panic!("no freezing seed found");
}
