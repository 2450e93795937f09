//! APIs layered on the compiler and engine: [`service`] serves many
//! compiled programs concurrently over one shared store of cached bags.

pub mod service;
