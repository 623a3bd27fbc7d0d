//! Property tests for the essence-key interning layer: symbol
//! round-trips through the global table, and the `ViewTree`'s cached
//! `id_name_index` stays equal to a from-scratch rebuild under
//! arbitrary structural operation sequences — including duplicate id
//! names, where the contract is lowest-id-wins, and clones of a shared
//! tree, whose added names go to an overlay of the shared index.

use droidsim_kernel::Symbol;
use droidsim_view::{ViewKind, ViewOp, ViewTree};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A deliberately small name pool so scripts collide on id names and
/// exercise the duplicate-name fallback paths of the cached index.
const NAME_POOL: [&str; 6] = ["pool_a", "pool_b", "pool_c", "pool_d", "pool_e", "pool_f"];

#[derive(Debug, Clone)]
enum Step {
    Add {
        parent_choice: usize,
        name_choice: Option<usize>,
    },
    Remove {
        choice: usize,
    },
    Mutate {
        choice: usize,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<usize>(), any::<usize>(), any::<bool>()).prop_map(
            |(parent_choice, name, anonymous)| Step::Add {
                parent_choice,
                name_choice: (!anonymous).then_some(name),
            }
        ),
        (any::<usize>(), any::<usize>(), any::<bool>()).prop_map(
            |(parent_choice, name, anonymous)| Step::Add {
                parent_choice,
                name_choice: (!anonymous).then_some(name),
            }
        ),
        any::<usize>().prop_map(|choice| Step::Remove { choice }),
        any::<usize>().prop_map(|choice| Step::Mutate { choice }),
    ]
}

fn run_script(steps: &[Step]) -> ViewTree {
    let mut tree = ViewTree::new();
    apply_steps(&mut tree, steps);
    tree
}

fn apply_steps(tree: &mut ViewTree, steps: &[Step]) {
    for step in steps {
        let ids = tree.iter_ids();
        match step {
            Step::Add {
                parent_choice,
                name_choice,
            } => {
                let parent = ids[parent_choice % ids.len()];
                let name = name_choice.map(|n| NAME_POOL[n % NAME_POOL.len()]);
                let _ = tree.add_view(parent, ViewKind::TextView, name);
            }
            Step::Remove { choice } => {
                let _ = tree.remove_view(ids[choice % ids.len()]);
            }
            Step::Mutate { choice } => {
                let _ = tree.apply(ids[choice % ids.len()], ViewOp::SetText("x".into()));
            }
        }
    }
}

/// The cached index equals a from-scratch arena scan, every entry is
/// its name's lowest-id live bearer, the shadowed lists hold exactly
/// the other bearers, and the public lookup agrees with the index.
fn check_index(tree: &ViewTree) -> Result<(), TestCaseError> {
    prop_assert_eq!(tree.id_name_index(), &tree.rebuild_id_name_index());
    for (&name, &id) in tree.id_name_index() {
        let node = tree.view(id).expect("index points at a live view");
        prop_assert_eq!(node.id_name, Some(name));
        let lowest = tree
            .iter_ids()
            .into_iter()
            .filter(|&v| tree.view(v).unwrap().id_name == Some(name))
            .min()
            .unwrap();
        prop_assert_eq!(id, lowest);
    }
    // The shadowed-duplicate side index (which makes removal O(depth)
    // instead of a full arena rescan) accounts for exactly the live
    // named bearers that lost the lowest-id race.
    let named_bearers = tree
        .iter_ids()
        .into_iter()
        .filter(|&v| tree.view(v).unwrap().id_name.is_some())
        .count();
    let shadowed: usize = tree
        .repeated_names()
        .iter()
        .map(|(_, ids)| ids.len() - 1)
        .sum();
    prop_assert_eq!(shadowed, named_bearers - tree.id_name_index().len());
    for name in NAME_POOL {
        let via_index = Symbol::lookup(name).and_then(|s| tree.id_name_index().get(&s).copied());
        prop_assert_eq!(tree.find_by_id_name(name), via_index);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interning_round_trips(name in "[a-zA-Z0-9_/]{1,24}") {
        let sym = Symbol::intern(&name);
        // Same string, same symbol — and the string survives verbatim.
        prop_assert_eq!(Symbol::intern(&name), sym);
        prop_assert_eq!(sym.as_str(), name.as_str());
        prop_assert_eq!(Symbol::lookup(&name), Some(sym));
        // The precomputed hierarchy key matches the formatted form the
        // bundle layer used before interning.
        let formatted = format!("view:{name}");
        prop_assert_eq!(sym.hierarchy_key(), formatted.as_str());
    }

    #[test]
    fn cached_index_matches_rebuild(steps in proptest::collection::vec(arb_step(), 0..80)) {
        // The incrementally maintained index equals a from-scratch
        // arena scan after any operation sequence.
        check_index(&run_script(&steps))?;
    }

    #[test]
    fn a_shared_clone_keeps_its_index_equal_to_a_rebuild(
        before in proptest::collection::vec(arb_step(), 0..40),
        after in proptest::collection::vec(arb_step(), 0..40),
        split in any::<usize>(),
    ) {
        // A kept tree and a clone of it: the clone's adds go to its
        // overlay while the two share the base, and a removal copies the
        // shared part it changes.
        let mut kept = run_script(&before);
        kept.share();
        let index = kept.id_name_index().clone();
        let mut clone = kept.clone();
        let split = split % (after.len() + 1);
        apply_steps(&mut clone, &after[..split]);
        check_index(&clone)?;
        // A clone of the clone forks its overlay too.
        let mut fork = clone.clone();
        apply_steps(&mut fork, &after[split..]);
        check_index(&fork)?;
        check_index(&clone)?;
        // Nothing reached the kept tree's index.
        prop_assert_eq!(kept.id_name_index(), &index);
        check_index(&kept)?;
    }
}
