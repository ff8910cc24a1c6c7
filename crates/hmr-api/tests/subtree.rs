//! MemFs against the brute-force namespace model (see `fs_model`): every
//! subtree operation on static layouts, and random op sequences.

mod fs_model;

use hmr_api::fs::{FileSystem, MemFs};
use proptest::prelude::*;

use fs_model::{check_op_sequence, check_subtree_ops, layout_strategy, ops_strategy, path_strategy};

fn fresh() -> Box<dyn FileSystem> {
    Box::new(MemFs::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memfs_subtree_ops_match_the_model(
        layout in layout_strategy(),
        q in path_strategy(),
        pick in 0usize..1024,
        dst in path_strategy(),
    ) {
        check_subtree_ops(&fresh, &layout, &q, pick, &dst);
    }

    #[test]
    fn memfs_op_sequences_match_the_model(ops in ops_strategy()) {
        check_op_sequence(&MemFs::new(), None, &ops);
    }
}
