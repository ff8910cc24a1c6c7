//! Model-based testing of the store: random operation sequences applied to
//! both the real [`KvStore`] and a trivially-correct in-memory oracle must
//! agree on every observable outcome (§5.2's "atomic, serializable"
//! contract, checked behaviourally).

use std::collections::BTreeMap;
use std::sync::Arc;

use kvstore::{KPath, KvError, KvStore, PathKind};
use proptest::prelude::*;

/// The oracle: paths → file (block metadata → payload) or dir.
#[derive(Default, Clone)]
struct Model {
    entries: BTreeMap<String, ModelNode>,
}

#[derive(Clone, Debug, PartialEq)]
enum ModelNode {
    File(BTreeMap<u32, u64>), // block info → payload value
    Dir,
}

impl Model {
    fn subtree(&self, p: &KPath) -> Vec<String> {
        self.entries
            .keys()
            .filter(|k| KPath::new(k.as_str()).starts_with(p))
            .cloned()
            .collect()
    }

    fn write(&mut self, path: &KPath, info: u32, value: u64) -> Result<(), ()> {
        // Parents must not be files.
        if let Some(parent) = path.parent() {
            for anc in parent.ancestors_inclusive() {
                if let Some(ModelNode::File(_)) = self.entries.get(anc.as_str()) {
                    return Err(());
                }
            }
        }
        match self.entries.get_mut(path.as_str()) {
            Some(ModelNode::Dir) => return Err(()),
            Some(ModelNode::File(blocks)) => {
                blocks.insert(info, value);
            }
            None => {
                if let Some(parent) = path.parent() {
                    for anc in parent.ancestors_inclusive() {
                        self.entries
                            .entry(anc.as_str().to_string())
                            .or_insert(ModelNode::Dir);
                    }
                }
                self.entries.insert(
                    path.as_str().to_string(),
                    ModelNode::File(BTreeMap::from([(info, value)])),
                );
            }
        }
        Ok(())
    }

    fn read(&self, path: &KPath, info: u32) -> Option<u64> {
        match self.entries.get(path.as_str()) {
            Some(ModelNode::File(blocks)) => blocks.get(&info).copied(),
            _ => None,
        }
    }

    fn delete(&mut self, path: &KPath) -> bool {
        let victims = self.subtree(path);
        for v in &victims {
            self.entries.remove(v);
        }
        !victims.is_empty()
    }

    fn rename(&mut self, src: &KPath, dst: &KPath) -> Result<(), ()> {
        let moved = self.subtree(src);
        if moved.is_empty() || dst.starts_with(src) || !self.subtree(dst).is_empty() {
            return Err(());
        }
        // Destination parents must not be files.
        if let Some(parent) = dst.parent() {
            for anc in parent.ancestors_inclusive() {
                if let Some(ModelNode::File(_)) = self.entries.get(anc.as_str()) {
                    return Err(());
                }
            }
        }
        for from in moved {
            let node = self.entries.remove(&from).expect("listed");
            let suffix = &from[src.as_str().len()..];
            let to = KPath::new(format!("{}{}", dst.as_str(), suffix));
            self.entries.insert(to.as_str().to_string(), node);
        }
        if let Some(parent) = dst.parent() {
            for anc in parent.ancestors_inclusive() {
                self.entries
                    .entry(anc.as_str().to_string())
                    .or_insert(ModelNode::Dir);
            }
        }
        Ok(())
    }
}

#[derive(Clone, Debug)]
enum Op {
    Write { path: KPath, info: u32, value: u64 },
    Read { path: KPath, info: u32 },
    Delete { path: KPath },
    Rename { src: KPath, dst: KPath },
    Mkdirs { path: KPath },
    GetInfo { path: KPath },
}

fn path_strategy() -> impl Strategy<Value = KPath> {
    proptest::collection::vec("[abc]", 1..4).prop_map(|cs| KPath::new(cs.join("/")))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (path_strategy(), 0u32..3, any::<u64>())
            .prop_map(|(path, info, value)| Op::Write { path, info, value }),
        (path_strategy(), 0u32..3).prop_map(|(path, info)| Op::Read { path, info }),
        path_strategy().prop_map(|path| Op::Delete { path }),
        (path_strategy(), path_strategy()).prop_map(|(src, dst)| Op::Rename { src, dst }),
        path_strategy().prop_map(|path| Op::Mkdirs { path }),
        path_strategy().prop_map(|path| Op::GetInfo { path }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_oracle(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let store: KvStore<u32> = KvStore::new(3);
        let mut model = Model::default();

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Write { path, info, value } => {
                    let real = store.write_block(
                        i % 3,
                        path,
                        *info,
                        Arc::new(*value),
                        1,
                    );
                    let oracle = model.write(path, *info, *value);
                    prop_assert_eq!(real.is_ok(), oracle.is_ok(), "write {:?}", op);
                }
                Op::Read { path, info } => {
                    let real = store
                        .create_reader(path, info)
                        .ok()
                        .and_then(|d| d.downcast_ref::<u64>().copied());
                    prop_assert_eq!(real, model.read(path, *info), "read {:?}", op);
                }
                Op::Delete { path } => {
                    let real = store.delete(path).unwrap();
                    prop_assert_eq!(real, model.delete(path), "delete {:?}", op);
                }
                Op::Rename { src, dst } => {
                    let real = store.rename(src, dst);
                    let oracle = model.rename(src, dst);
                    prop_assert_eq!(real.is_ok(), oracle.is_ok(), "rename {:?}", op);
                    if real.is_err() {
                        // Failed renames must not mutate either side; the
                        // final-state comparison below catches divergence.
                        model = model.clone();
                    }
                }
                Op::Mkdirs { path } => {
                    let real = store.mkdirs(path);
                    // Oracle: mkdirs fails iff some ancestor is a file.
                    let conflict = path.ancestors_inclusive().iter().any(|a| {
                        matches!(model.entries.get(a.as_str()), Some(ModelNode::File(_)))
                    });
                    prop_assert_eq!(real.is_ok(), !conflict, "mkdirs {:?}", op);
                    if !conflict {
                        for anc in path.ancestors_inclusive() {
                            model
                                .entries
                                .entry(anc.as_str().to_string())
                                .or_insert(ModelNode::Dir);
                        }
                    }
                }
                Op::GetInfo { path } => {
                    let real = store.get_info(path);
                    match model.entries.get(path.as_str()) {
                        None => prop_assert!(
                            matches!(real, Err(KvError::NotFound(_))),
                            "getinfo {:?}", op
                        ),
                        Some(ModelNode::Dir) => {
                            prop_assert_eq!(real.unwrap().kind, PathKind::Dir)
                        }
                        Some(ModelNode::File(blocks)) => {
                            let info = real.unwrap();
                            prop_assert_eq!(info.kind, PathKind::File);
                            prop_assert_eq!(info.blocks.len(), blocks.len());
                        }
                    }
                }
            }
        }

        // Final state: every model file is readable with matching payloads,
        // and the store holds nothing the model lacks.
        for (path, node) in &model.entries {
            let p = KPath::new(path.as_str());
            let info = store.get_info(&p).expect("model entry exists in store");
            match node {
                ModelNode::Dir => prop_assert_eq!(info.kind, PathKind::Dir),
                ModelNode::File(blocks) => {
                    for (bi, val) in blocks {
                        let data = store.create_reader(&p, bi).unwrap();
                        prop_assert_eq!(data.downcast_ref::<u64>(), Some(val));
                    }
                }
            }
        }
    }
}
