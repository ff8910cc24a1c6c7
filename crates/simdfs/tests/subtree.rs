//! SimDfs against the brute-force namespace model MemFs is checked against:
//! every subtree operation on static layouts, and random op sequences.

#[path = "../../hmr-api/tests/fs_model/mod.rs"]
mod fs_model;

use hmr_api::fs::FileSystem;
use proptest::prelude::*;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

use fs_model::{check_op_sequence, check_subtree_ops, layout_strategy, ops_strategy, path_strategy};

fn fresh() -> Box<dyn FileSystem> {
    Box::new(SimDfs::with_config(
        Cluster::new(2, CostModel::default()),
        1 << 10,
        2,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simdfs_subtree_ops_match_the_model(
        layout in layout_strategy(),
        q in path_strategy(),
        pick in 0usize..1024,
        dst in path_strategy(),
    ) {
        check_subtree_ops(&fresh, &layout, &q, pick, &dst);
    }

    #[test]
    fn simdfs_op_sequences_match_the_model(ops in ops_strategy()) {
        check_op_sequence(&*fresh(), None, &ops);
    }
}
