//! The simulator alone at several client counts, for the traced run of
//! `wan_shared_deleg`.
//!
//! Each client is one actor on its own WAN link to one echo server. It
//! repeats the delegation workload's loop shape: a think time of
//! 0.4–6 s, then a 512-byte round trip whose reply must echo the request.
//! No proxy, session or consistency model is involved, so the system CPU
//! of a run is the cost of the simulator's actor handoffs at that client
//! count.

use crate::report::Report;
use crate::simrun::RunCost;
use gvfs_netsim::link::{Link, LinkConfig};
use gvfs_netsim::transport::{ServerNode, SimRpcClient};
use gvfs_netsim::Sim;
use gvfs_rpc::dispatch::{Dispatcher, RpcService};
use gvfs_rpc::stats::RpcStats;
use gvfs_rpc::RpcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Program number of the echo service.
const ECHO_PROGRAM: u32 = 0x2000_0e40;
/// Bytes per call, as one delegation-workload file.
const PAYLOAD: usize = 512;

struct Echo;

impl RpcService for Echo {
    fn program(&self) -> u32 {
        ECHO_PROGRAM
    }
    fn version(&self) -> u32 {
        1
    }
    fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        match procedure {
            1 => Ok(args.to_vec()),
            _ => Err(RpcError::ProcedureUnavailable { program: ECHO_PROGRAM, procedure }),
        }
    }
}

/// Runs `clients` echo clients of `ops` round trips each and returns the
/// run's cost. A failed or wrong reply fails an output check.
pub fn run(seed: u64, clients: usize, ops: usize, rep: &mut Report) -> RunCost {
    let mut dispatcher = Dispatcher::new();
    dispatcher.register(Echo);
    let server = ServerNode::new("echo", dispatcher, Duration::from_micros(200));
    let sim = Sim::new();
    let echoed = Arc::new(AtomicU64::new(0));
    for i in 0..clients {
        let link = Link::new(LinkConfig::wan());
        let client = SimRpcClient::new(link.forward(), Arc::clone(&server), RpcStats::new());
        let echoed = Arc::clone(&echoed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64);
        sim.spawn(&format!("echo-client-{i}"), move || {
            let mut payload = vec![0u8; PAYLOAD];
            for _ in 0..ops {
                gvfs_netsim::sleep(Duration::from_millis(rng.gen_range(400u64..6000)));
                payload.iter_mut().for_each(|b| *b = rng.gen_range(0u8..=255));
                if client.call(ECHO_PROGRAM, 1, 1, payload.clone()).as_ref() == Ok(&payload) {
                    echoed.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
    }
    let cost = RunCost::measure(sim);
    let (want, got) = ((clients * ops) as u64, echoed.load(Ordering::SeqCst));
    rep.check(got == want, || {
        format!("simulator alone, {clients} clients: {got} of {want} round trips echoed")
    });
    cost
}
