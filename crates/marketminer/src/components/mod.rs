//! The analytics components of Figure 1.

pub mod bar_accumulator;
pub mod collector;
pub mod correlation_engine;
pub mod order_gateway;
pub mod risk;
pub mod stream_node;

pub use bar_accumulator::{BarAccumulatorNode, HealthPolicy};
pub use collector::{FaultedCollector, ReplayCollector};
pub use correlation_engine::CorrelationEngineNode;
pub use order_gateway::OrderGatewayNode;
pub use stream_node::StreamNode;
