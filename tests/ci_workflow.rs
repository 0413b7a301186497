//! The CI workflow must load as YAML. In a plain (unquoted) scalar, `: `
//! starts a mapping value and ` #` a comment, so a step name holding
//! either makes GitHub reject the whole workflow. Every such name must be
//! quoted.

#[test]
fn ci_step_names_that_need_quotes_have_them() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
    let workflow = std::fs::read_to_string(path).expect("read the CI workflow");
    let unquoted: Vec<(usize, &str)> = workflow
        .lines()
        .enumerate()
        .filter_map(|(i, line)| Some((i + 1, line.trim_start().strip_prefix("- name:")?.trim())))
        .filter(|(_, name)| !name.starts_with(['"', '\'']))
        .filter(|(_, name)| name.contains(": ") || name.contains(" #"))
        .collect();
    assert!(unquoted.is_empty(), "unquoted step names that YAML misreads: {unquoted:?}");
}
