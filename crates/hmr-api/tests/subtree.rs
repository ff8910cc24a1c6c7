//! MemFs's subtree operations against a brute-force model, on paths whose
//! siblings sort inside their prefix (see `fs_model`).

mod fs_model;

use hmr_api::fs::{FileSystem, MemFs};
use proptest::prelude::*;

use fs_model::{check_subtree_ops, layout_strategy, path_strategy};

fn fresh() -> Box<dyn FileSystem> {
    Box::new(MemFs::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memfs_subtree_ops_match_the_model(
        layout in layout_strategy(),
        q in path_strategy(),
        pick in 0usize..1024,
        dst in path_strategy(),
    ) {
        check_subtree_ops(&fresh, &layout, &q, pick, &dst);
    }
}
