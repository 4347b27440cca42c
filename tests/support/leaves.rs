//! The leaves beside a pinned digest: one hash per part of the pinned
//! value, compared before the pin, so that a moved pin names the parts
//! that moved. Each test includes this file with `#[path]`.

/// Asserts that every leaf equals its pin, naming the fields whose leaves
/// moved.
pub fn assert_unmoved<F: core::fmt::Debug>(
    fields: &[F],
    got: &[u64],
    want: &[u64],
    what: impl core::fmt::Debug,
) {
    assert_eq!(got.len(), want.len(), "{what:?}: leaf count");
    let moved: Vec<&F> = (fields.iter().zip(got.iter().zip(want)))
        .filter(|(_, (got, want))| got != want)
        .map(|(field, _)| field)
        .collect();
    assert!(
        moved.is_empty(),
        "{what:?}: the leaves of {moved:?} moved; leaves now {got:?}"
    );
}
